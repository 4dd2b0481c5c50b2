package load

// The rate search's predicate and bracket are fixed. A rate is
// sustainable when the 0.99 quantile of decision slip (time past the
// watching window η before a dispatch-or-reject decision lands — see
// Result.Slip) stays within one periodic-check interval AND at least half
// the submitted orders are served. Both legs matter: the pooling framework
// keeps decisions timely under overload by rejecting, so slip alone would
// call a reject-everything platform sustainable. The search probes 0.125
// and 2 orders/s, then bisects between them four times. Every probe is a
// deterministic virtual-clock run, so the found rate is bit-identical run
// to run — a searchable performance number a test can pin exactly.
const (
	searchQuantile   = 0.99
	searchMinService = 0.5
	searchLo         = 0.125
	searchHi         = 2
	searchIters      = 4
)

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
	// the bracket floor failed).
	MaxRate float64
	// Budget (one Δt) and Quantile echo the predicate.
	Budget   float64
	Quantile float64
	// Probes lists every evaluation in search order.
	Probes []Probe
}

// SearchMaxRate bisects the arrival rate of base (whose Arrival.Rate each
// probe overwrites) for the maximum sustainable point. The log callback
// (nil ok) receives one line per probe.
func SearchMaxRate(base Config, logf func(string, ...any)) (*SearchResult, error) {
	base = base.Defaults()
	res := &SearchResult{Budget: base.Tick, Quantile: searchQuantile}
	probe := func(rate float64) (bool, error) {
		cfg := base
		cfg.Arrival.Rate = rate
		r, err := Run(cfg)
		if err != nil {
			return false, err
		}
		slip := r.Slip.Quantile(searchQuantile)
		ok := slip <= res.Budget && r.ServiceRate >= searchMinService
		res.Probes = append(res.Probes, Probe{Rate: rate, Slip: slip, ServiceRate: r.ServiceRate, Sustainable: ok})
		if logf != nil {
			logf("load: probe rate=%.4f/s slip-q%.3g=%.2fs budget=%.2fs svc=%.2f sustainable=%v\n",
				rate, searchQuantile, slip, res.Budget, r.ServiceRate, ok)
		}
		return ok, nil
	}

	ok, err := probe(searchLo)
	if err != nil {
		return nil, err
	}
	if !ok {
		return res, nil // even the floor rate slips: MaxRate stays 0
	}
	res.MaxRate = searchLo
	ok, err = probe(searchHi)
	if err != nil {
		return nil, err
	}
	if ok {
		res.MaxRate = searchHi
		return res, nil
	}
	lo, hi := float64(searchLo), float64(searchHi)
	for i := 0; i < searchIters; i++ {
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
