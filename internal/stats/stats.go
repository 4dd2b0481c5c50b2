// Package stats provides the small summary-statistics toolkit used by the
// experiment harness for multi-seed runs: means, standard deviations,
// percentiles and normal-approximation confidence intervals.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of measurements.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary; it panics on an empty sample (callers
// always control sample construction).
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var vr float64
		for _, x := range xs {
			d := x - s.Mean
			vr += float64(d * d)
		}
		s.StdDev = math.Sqrt(vr / float64(len(xs)-1))
	}
	s.Median = Percentile(xs, 50)
	return s
}

// Percentile returns the p-th percentile (0-100) with linear interpolation.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := float64(rank) - float64(lo) // converted: rank is a product, kept unfused
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval around the mean (0 for samples of size < 2).
func (s Summary) CI95() float64 {
	if s.N < 2 {
		return 0
	}
	return 1.96 * s.StdDev / math.Sqrt(float64(s.N))
}

// String formats "mean ± ci95 [min, max]".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g [%.4g, %.4g]", s.Mean, s.CI95(), s.Min, s.Max)
}

// Welford is a streaming mean/variance accumulator (Welford's online
// algorithm). The sweep engine uses it for
// per-cell wall-clock summaries, which — unlike the metric summaries —
// need no retained samples. The zero value is an empty accumulator.
type Welford struct {
	n        int
	mean, m2 float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += float64(d * (x - w.mean))
}

// Mean returns the running mean (0 when empty).
func (w Welford) Mean() float64 { return w.mean }

// StdDev returns the sample standard deviation (n-1 denominator; 0 for
// fewer than two observations).
func (w Welford) StdDev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// CI95 returns the half-width of the 95% normal-approximation confidence
// interval around the mean.
func (w Welford) CI95() float64 {
	if w.n < 2 {
		return 0
	}
	return 1.96 * w.StdDev() / math.Sqrt(float64(w.n))
}

// String formats "mean ± ci95 (n)".
func (w Welford) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", w.Mean(), w.CI95(), w.n)
}
