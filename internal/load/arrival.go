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
	// Surge is a non-homogeneous Poisson process: the base rate, stepped
	// up surgeFactor times over the middle third of the horizon.
	Surge Process = "surge"
	// Pareto draws heavy-tailed inter-arrivals (Pareto with tail index
	// paretoAlpha), scaled so the long-run mean rate still matches Rate —
	// bursts and lulls at the same average load.
	Pareto Process = "pareto"
)

// The arrival shapes are fixed: a surge is a 3× step over the middle third
// of the horizon, and Pareto inter-arrivals have tail index 1.5 (above 1,
// so the mean exists; smaller would be heavier).
const (
	surgeFactor = 3
	paretoAlpha = 1.5
)

// ArrivalSpec pins one arrival process: the schedule it generates is a
// deterministic function of the spec and the horizon, nothing else.
type ArrivalSpec struct {
	Process Process
	// Rate is the mean arrival rate in orders per second (for Surge, the
	// base rate outside the surge window).
	Rate float64
	Seed int64
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
	return nil
}

// Times generates the arrival schedule over [0, horizon): a strictly
// increasing slice of release offsets. Same (spec, horizon) ⇒ byte-identical
// slice — the determinism the whole harness inherits.
func (s ArrivalSpec) Times(horizon float64) ([]float64, error) {
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
		return thinned(rng, s.Rate, horizon), nil
	default: // Pareto
		return pareto(rng, s.Rate, horizon), nil
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
func thinned(rng *rand.Rand, rate, horizon float64) []float64 {
	peak := rate * surgeFactor
	start := horizon / 3
	end := start + horizon/3
	var out []float64
	t := 0.0
	for {
		t += -math.Log(1-float64(rng.Float64())) / peak // converted as in homogeneous
		if t >= horizon {
			return out
		}
		lambda := rate // λ(t): the base rate, and peak inside [start, end)
		if t >= start && t < end {
			lambda = peak
		}
		if rng.Float64()*peak < lambda {
			out = append(out, t)
		}
	}
}

// pareto sums Pareto(paretoAlpha) inter-arrivals with the scale chosen so
// the mean inter-arrival is 1/rate: xm = (alpha-1)/(alpha*rate).
func pareto(rng *rand.Rand, rate, horizon float64) []float64 {
	xm := (paretoAlpha - 1) / (paretoAlpha * rate)
	var out []float64
	t := 0.0
	for {
		u := 1 - float64(rng.Float64()) // in (0,1]; converted as in homogeneous
		t += float64(xm * math.Pow(u, -1/paretoAlpha))
		if t >= horizon {
			return out
		}
		out = append(out, t)
	}
}
