// Package load is the open-loop load harness: it drives a Platform with a
// synthetic arrival process at a configured rate — arrivals come when the
// schedule says, not when the platform is ready, exactly like production
// traffic — and measures what the batch benches cannot: sustained
// orders/sec, admit→dispatch latency tails, and the event-bus backpressure
// onset. Everything runs on the virtual clock: an arrival schedule is a
// pure function of (process, rate, seed), so the generated order stream,
// the decision journal and every reported latency quantile are bit-identical
// run to run. Wall-clock never enters a measurement; the only wall-clock
// number anywhere near the harness is the runtime cmd/watterload reports
// for the harness itself.
package load

import (
	"fmt"
	"math"
	"math/rand"
)

// Process identifies an arrival process family.
type Process string

const (
	// Poisson is the memoryless baseline: exponential inter-arrivals at a
	// constant rate.
	Poisson Process = "poisson"
	// Surge is a non-homogeneous Poisson process: base rate outside the
	// surge window, SurgeFactor times that inside it, with an optional
	// linear ramp instead of a step.
	Surge Process = "surge"
	// Pareto draws heavy-tailed inter-arrivals (Pareto with tail index
	// ParetoAlpha), scaled so the long-run mean rate still matches Rate —
	// bursts and lulls at the same average load.
	Pareto Process = "pareto"
)

// ArrivalSpec pins one arrival process: the schedule it generates is a
// deterministic function of the spec and the horizon, nothing else.
type ArrivalSpec struct {
	Process Process
	// Rate is the mean arrival rate in orders per second (for Surge, the
	// base rate outside the surge window).
	Rate float64
	Seed int64

	// Surge shape (Process == Surge only). The window [SurgeStart,
	// SurgeStart+SurgeLen) multiplies the base rate by SurgeFactor; with
	// SurgeRamp the multiplier ramps linearly from 1 at the window edges to
	// SurgeFactor at its midpoint instead of stepping.
	SurgeFactor float64
	SurgeStart  float64
	SurgeLen    float64
	SurgeRamp   bool

	// ParetoAlpha is the tail index (must exceed 1 so the mean exists;
	// smaller is heavier). Zero defaults to 1.5.
	ParetoAlpha float64
}

// Defaults fills zero-valued shape parameters with usable values: surge
// factor 3 over the middle third of the horizon, Pareto tail index 1.5.
// Rate, Seed and Process are never defaulted — they are the experiment.
func (s ArrivalSpec) Defaults(horizon float64) ArrivalSpec {
	if s.Process == Surge {
		if s.SurgeFactor == 0 {
			s.SurgeFactor = 3
		}
		if s.SurgeLen == 0 {
			s.SurgeStart = horizon / 3
			s.SurgeLen = horizon / 3
		}
	}
	if s.Process == Pareto && s.ParetoAlpha == 0 {
		s.ParetoAlpha = 1.5
	}
	return s
}

// Validate rejects specs the generators cannot honor.
func (s ArrivalSpec) Validate() error {
	switch s.Process {
	case Poisson, Surge, Pareto:
	default:
		return fmt.Errorf("load: unknown arrival process %q (want poisson, surge or pareto)", s.Process)
	}
	if s.Rate <= 0 || math.IsInf(s.Rate, 0) || math.IsNaN(s.Rate) {
		return fmt.Errorf("load: arrival rate must be a positive finite orders/sec, got %v", s.Rate)
	}
	if s.Process == Surge {
		if s.SurgeFactor < 1 {
			return fmt.Errorf("load: surge factor must be at least 1, got %v", s.SurgeFactor)
		}
		if s.SurgeStart < 0 || s.SurgeLen < 0 {
			return fmt.Errorf("load: surge window [%v, +%v) must be non-negative", s.SurgeStart, s.SurgeLen)
		}
	}
	if s.Process == Pareto && s.ParetoAlpha <= 1 {
		return fmt.Errorf("load: Pareto tail index must exceed 1 so the mean inter-arrival exists, got %v", s.ParetoAlpha)
	}
	return nil
}

// Times generates the arrival schedule over [0, horizon): a strictly
// increasing slice of release offsets. Same (spec, horizon) ⇒ byte-identical
// slice — the determinism the whole harness inherits.
func (s ArrivalSpec) Times(horizon float64) ([]float64, error) {
	s = s.Defaults(horizon)
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if horizon <= 0 || math.IsInf(horizon, 0) || math.IsNaN(horizon) {
		return nil, fmt.Errorf("load: horizon must be a positive finite duration, got %v", horizon)
	}
	rng := rand.New(rand.NewSource(mix(s.Seed, s.Process)))
	switch s.Process {
	case Poisson:
		return homogeneous(rng, s.Rate, horizon), nil
	case Surge:
		return thinned(rng, s, horizon), nil
	default: // Pareto
		return pareto(rng, s.Rate, s.ParetoAlpha, horizon), nil
	}
}

// mix folds the process name into the seed so the three processes draw
// from unrelated streams even at the same user seed.
func mix(seed int64, p Process) int64 {
	h := uint64(seed) * 0x9e3779b97f4a7c15
	for i := 0; i < len(p); i++ {
		h = (h ^ uint64(p[i])) * 0x100000001b3
	}
	return int64(h)
}

// homogeneous samples a constant-rate Poisson process by summing
// exponential inter-arrivals.
func homogeneous(rng *rand.Rand, rate, horizon float64) []float64 {
	var out []float64
	t := 0.0
	for {
		// Inverse-CDF sampling: one uniform per arrival, so the schedule is
		// a prefix-stable function of the RNG stream. Float64 is a product
		// once inlined; the conversion keeps it from fusing with 1 - u.
		t += -math.Log(1-float64(rng.Float64())) / rate
		if t >= horizon {
			return out
		}
		out = append(out, t)
	}
}

// thinned samples the surge process by Lewis-Shedler thinning: propose at
// the peak rate, accept with probability λ(t)/λmax. Both draws come from
// the one stream, keeping the schedule deterministic.
func thinned(rng *rand.Rand, s ArrivalSpec, horizon float64) []float64 {
	peak := s.Rate * s.SurgeFactor
	var out []float64
	t := 0.0
	for {
		t += -math.Log(1-float64(rng.Float64())) / peak // converted as in homogeneous
		if t >= horizon {
			return out
		}
		if rng.Float64()*peak < s.rateAt(t) {
			out = append(out, t)
		}
	}
}

// rateAt is the surge intensity λ(t).
func (s ArrivalSpec) rateAt(t float64) float64 {
	if t < s.SurgeStart || t >= s.SurgeStart+s.SurgeLen {
		return s.Rate
	}
	if !s.SurgeRamp {
		return s.Rate * s.SurgeFactor
	}
	// Linear ramp: 1 at the window edges, SurgeFactor at its midpoint.
	frac := (t - s.SurgeStart) / s.SurgeLen // in [0,1)
	tri := 1 - math.Abs(2*frac-1)           // 0 at edges, 1 at midpoint
	return s.Rate * (1 + float64((s.SurgeFactor-1)*tri))
}

// pareto sums Pareto(alpha) inter-arrivals with the scale chosen so the
// mean inter-arrival is 1/rate: xm = (alpha-1)/(alpha*rate).
func pareto(rng *rand.Rand, rate, alpha, horizon float64) []float64 {
	xm := (alpha - 1) / (alpha * rate)
	var out []float64
	t := 0.0
	for {
		u := 1 - float64(rng.Float64()) // in (0,1]; converted as in homogeneous
		t += float64(xm * math.Pow(u, -1/alpha))
		if t >= horizon {
			return out
		}
		out = append(out, t)
	}
}
