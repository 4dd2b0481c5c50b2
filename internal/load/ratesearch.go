package load

import (
	"fmt"
	"math"
)

// SearchConfig brackets the maximum sustainable arrival rate: the largest
// rate at which the configured quantile of decision slip (time past the
// watching window η before a dispatch-or-reject decision lands — see
// Result.Slip) stays within SlackTicks periodic-check intervals AND the
// service rate holds its floor. Both legs matter: the pooling framework
// keeps decisions timely under overload by rejecting, so slip alone would
// call a reject-everything platform sustainable. Because every probe is a
// deterministic virtual-clock run and the bisection iterates a fixed
// number of times over a fixed bracket, the found rate is bit-identical
// run to run — a searchable performance number a test can pin exactly.
type SearchConfig struct {
	// Base is the run template; Base.Arrival.Rate is overwritten per probe.
	Base Config
	// Quantile is the slip quantile that must stay inside the budget
	// (default 0.99).
	Quantile float64
	// SlackTicks sets the slip budget to SlackTicks * Base.Tick seconds
	// (default 1: decided within one periodic check past the window).
	SlackTicks float64
	// MinServiceRate is the served/submitted floor a sustainable rate must
	// hold (default 0.5; set negative to disable).
	MinServiceRate float64
	// Lo and Hi bracket the search in orders/sec (defaults 0.25 and 16).
	Lo, Hi float64
	// Iters is the fixed bisection depth (default 7, resolving the bracket
	// to Hi-Lo over 2^7).
	Iters int
}

// Probe is one rate evaluation of the search.
type Probe struct {
	Rate        float64
	Slip        float64 // quantile decision slip at this rate, virtual seconds
	ServiceRate float64
	Sustainable bool
}

// SearchResult reports the bracketing outcome.
type SearchResult struct {
	// MaxRate is the largest probed rate that met the budget (0 when even
	// Lo failed).
	MaxRate float64
	// Budget and Quantile echo the resolved predicate.
	Budget   float64
	Quantile float64
	// Probes lists every evaluation in search order.
	Probes []Probe
}

func (sc SearchConfig) defaults() SearchConfig {
	sc.Base = sc.Base.Defaults()
	if sc.Base.Arrival.Process == "" {
		sc.Base.Arrival.Process = Poisson
	}
	if sc.Quantile == 0 {
		sc.Quantile = 0.99
	}
	if sc.SlackTicks == 0 {
		sc.SlackTicks = 1
	}
	if sc.MinServiceRate == 0 {
		sc.MinServiceRate = 0.5
	}
	if sc.Lo == 0 {
		sc.Lo = 0.25
	}
	if sc.Hi == 0 {
		sc.Hi = 16
	}
	if sc.Iters == 0 {
		sc.Iters = 7
	}
	return sc
}

// SearchMaxRate bisects the arrival rate for the maximum sustainable
// point. The log callback (nil ok) receives one line per probe.
func SearchMaxRate(sc SearchConfig, logf func(string, ...any)) (*SearchResult, error) {
	sc = sc.defaults()
	if sc.Quantile <= 0 || sc.Quantile > 1 {
		return nil, fmt.Errorf("load: search quantile must be in (0,1], got %v", sc.Quantile)
	}
	if sc.Lo <= 0 || sc.Hi <= sc.Lo || math.IsInf(sc.Hi, 0) {
		return nil, fmt.Errorf("load: search bracket [%v, %v] must satisfy 0 < lo < hi < inf", sc.Lo, sc.Hi)
	}
	if sc.Iters < 1 || sc.Iters > 32 {
		return nil, fmt.Errorf("load: search depth must be in [1,32], got %d", sc.Iters)
	}
	res := &SearchResult{Budget: sc.SlackTicks * sc.Base.Tick, Quantile: sc.Quantile}
	probe := func(rate float64) (bool, error) {
		cfg := sc.Base
		cfg.Arrival.Rate = rate
		r, err := Run(cfg)
		if err != nil {
			return false, err
		}
		slip := r.Slip.Quantile(sc.Quantile)
		ok := slip <= res.Budget && r.ServiceRate >= sc.MinServiceRate
		res.Probes = append(res.Probes, Probe{Rate: rate, Slip: slip, ServiceRate: r.ServiceRate, Sustainable: ok})
		if logf != nil {
			logf("load: probe rate=%.4f/s slip-q%.3g=%.2fs budget=%.2fs svc=%.2f sustainable=%v\n",
				rate, sc.Quantile, slip, res.Budget, r.ServiceRate, ok)
		}
		return ok, nil
	}

	ok, err := probe(sc.Lo)
	if err != nil {
		return nil, err
	}
	if !ok {
		return res, nil // even the floor rate slips: MaxRate stays 0
	}
	res.MaxRate = sc.Lo
	ok, err = probe(sc.Hi)
	if err != nil {
		return nil, err
	}
	if ok {
		res.MaxRate = sc.Hi
		return res, nil
	}
	lo, hi := sc.Lo, sc.Hi
	for i := 0; i < sc.Iters; i++ {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if ok {
			lo = mid
			res.MaxRate = mid
		} else {
			hi = mid
		}
	}
	return res, nil
}
