package load

import (
	"fmt"
	"math"
)

// Histogram layout: log-spaced buckets (HDR-style) with a fixed global
// geometry. Bucket 0 holds [0, histMin); bucket i ≥ 1 holds
// [histMin*growth^(i-1), histMin*growth^i). With histMin = 1 ms and 8
// buckets per octave, 256 buckets span 1 ms to ~40 years of virtual
// latency — every admit→dispatch latency a simulation can produce lands in
// range, and relative quantile error is bounded by the ~9% bucket width.
const (
	histBuckets   = 256
	histMin       = 1e-3 // seconds
	histPerOctave = 8
)

// Hist is a log-bucketed latency histogram. The zero value is ready to
// use. Counts, quantiles and the maximum are a function of the multiset
// of recorded values; the float sum behind Mean also depends on their
// order.
type Hist struct {
	counts [histBuckets]uint64
	total  uint64
	max    float64
	sum    float64
}

// bucketOf maps a latency in seconds onto the fixed layout.
func bucketOf(v float64) int {
	if v < histMin {
		return 0
	}
	b := 1 + int(math.Floor(math.Log2(v/histMin)*histPerOctave))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Record adds one latency observation (seconds; negatives clamp to 0).
func (h *Hist) Record(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.total++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Hist) Count() uint64 { return h.total }

// Max returns the largest recorded value (0 when empty).
func (h *Hist) Max() float64 { return h.max }

// Mean returns the exact arithmetic mean (0 when empty). The sum
// accumulates in record order; the harness records on one goroutine in
// event order, so the mean is as deterministic as the journal.
func (h *Hist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// upper edge of the first bucket at which the cumulative count reaches
// ceil(q*total), clamped to the exact observed maximum. Empty histograms
// report 0.
func (h *Hist) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := uint64(math.Ceil(q * float64(h.total)))
	if need == 0 {
		need = 1
	}
	var cum uint64
	for b := 0; b < histBuckets; b++ {
		cum += h.counts[b]
		if cum >= need {
			// The top bucket is open-ended; its only honest upper bound is
			// the exact observed maximum, which also clamps any bucket edge
			// that overshoots the max.
			edge := bucketUpper(b)
			if b == histBuckets-1 || edge > h.max {
				return h.max
			}
			return edge
		}
	}
	return h.max
}

// bucketUpper returns the exclusive upper edge of a bucket.
func bucketUpper(b int) float64 {
	if b == 0 {
		return histMin
	}
	return histMin * math.Pow(2, float64(b)/histPerOctave)
}

// String summarizes the histogram for logs.
func (h *Hist) String() string {
	return fmt.Sprintf("n=%d p50=%.3fs p99=%.3fs p999=%.3fs max=%.3fs",
		h.total, h.Quantile(0.50), h.Quantile(0.99), h.Quantile(0.999), h.max)
}
