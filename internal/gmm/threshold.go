package gmm

import (
	"math"

	"watter/internal/order"
	"watter/internal/strategy"
)

// Gain is the reduced objective of Eq. 8 for a single order: the expected
// loss-space gain (p - θ)·F(θ) of dispatching with threshold θ.
func Gain(m *Model, p, theta float64) float64 {
	return (p - theta) * m.CDF(theta)
}

// OptimalThreshold maximizes (p - θ)·F(θ) over θ in [0, p] (Algorithm 3).
// A coarse deterministic grid brackets the maximum, then golden-section
// search refines it; the paper's convexity analysis (Section V-B) makes the
// objective unimodal on the support, and the grid stage protects against
// multimodal corner cases from extreme mixtures.
func OptimalThreshold(m *Model, p float64) float64 {
	if p <= 0 {
		return 0
	}
	const gridN = 96
	bestI, bestV := 0, math.Inf(-1)
	for i := 0; i <= gridN; i++ {
		th := p * float64(i) / gridN
		if v := Gain(m, p, th); v > bestV {
			bestV = v
			bestI = i
		}
	}
	lo := p * float64(max(bestI-1, 0)) / gridN
	hi := p * float64(min(bestI+1, gridN)) / gridN
	return goldenMax(func(th float64) float64 { return Gain(m, p, th) }, lo, hi, float64(1e-6*p)+1e-9)
}

// goldenMax runs golden-section search for the maximum of f on [lo, hi].
func goldenMax(f func(float64) float64, lo, hi, tol float64) float64 {
	const invPhi = 0.6180339887498949
	a, b := lo, hi
	c := b - float64((b-a)*invPhi)
	d := a + float64((b-a)*invPhi)
	fc, fd := f(c), f(d)
	for b-a > tol {
		if fc >= fd {
			b, d, fd = d, c, fc
			c = b - float64((b-a)*invPhi)
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + float64((b-a)*invPhi)
			fd = f(d)
		}
	}
	return (a + b) / 2
}

// GradientThreshold is the paper's literal optimizer: projected gradient
// ascent on (p - θ)·F(θ) with numeric derivative. Dispatch uses
// OptimalThreshold; TestGradientMatchesGolden and examples/threshold
// compare the two, which land on the same optimum for unimodal objectives.
func GradientThreshold(m *Model, p float64, steps int, lr float64) float64 {
	if p <= 0 {
		return 0
	}
	if steps <= 0 {
		steps = 100
	}
	if lr <= 0 {
		lr = 0.1 * p
	}
	h := 1e-5 * p
	if h <= 0 {
		h = 1e-6
	}
	// Multi-start protects against plateaus far from the optimum; the
	// objective is unimodal but its gradient is tiny in both tails.
	bestTheta, bestGain := 0.0, math.Inf(-1)
	for _, start := range []float64{0.2, 0.5, 0.8} {
		theta := start * p
		for i := 0; i < steps; i++ {
			grad := (float64(Gain(m, p, theta+h)) - float64(Gain(m, p, theta-h))) / (2 * h)
			step := lr / (1 + float64(i)/20)
			theta += float64(step * math.Tanh(grad)) // bounded step, sign-faithful
			if theta < 0 {
				theta = 0
			}
			if theta > p {
				theta = p
			}
		}
		if g := Gain(m, p, theta); g > bestGain {
			bestGain = g
			bestTheta = theta
		}
	}
	return bestTheta
}

// ThresholdSource adapts a fitted model into the strategy.ThresholdSource
// interface: each order's threshold is the optimizer's θ*(p(i)). Results
// are memoized on the penalty value (quantized) because many orders share
// penalty magnitudes. Not safe for concurrent use: a training run builds
// one for its own experience collection, and the trained bundle keeps only
// the Model.
type ThresholdSource struct {
	Model *Model
	cache map[int64]float64
}

// NewThresholdSource wraps a fitted model.
func NewThresholdSource(m *Model) *ThresholdSource {
	return &ThresholdSource{Model: m, cache: make(map[int64]float64)}
}

// Threshold returns θ*(p(i)) for the order (Algorithm 3 lines 3-6).
func (s *ThresholdSource) Threshold(o *order.Order, _ float64) float64 {
	p := o.Penalty()
	if p <= 0 {
		return 0
	}
	key := int64(p * 16) // ~62 ms quantization: plenty for thresholds
	v, ok := s.cache[key]
	if !ok {
		v = OptimalThreshold(s.Model, p)
		s.cache[key] = v
	}
	return v
}

// ThresholdRange implements strategy.ThresholdSource. It claims nothing:
// θ* is memoized, so asking for it costs about as much as bounding it.
func (s *ThresholdSource) ThresholdRange(*order.Order, float64) (lo, hi float64) {
	return strategy.Unbounded()
}
