package load

// The rate search's predicate and bracket are fixed. A rate is
// sustainable when at least half the submitted orders are served. Decision
// slip (Result.Slip) cannot decide it: with τ = 1.6 and η = 0.8 every
// order is served by release + 0.6·d or rejected at the first check after
// that, so slip never exceeds one Δt (DESIGN.md §14). The pooling
// framework degrades under overload by rejecting, and the service rate is
// what shows it. The search probes 0.125 and 2 orders/s, then bisects
// between them four times. Every probe is a deterministic virtual-clock
// run, so the found rate is bit-identical run to run — a searchable
// performance number a test can pin exactly.
const (
	searchMinService = 0.5
	searchLo         = 0.125
	searchHi         = 2
	searchIters      = 4
)

// Probe is one rate evaluation of the search.
type Probe struct {
	Rate        float64
	ServiceRate float64
	Sustainable bool
}

// SearchResult reports the bracketing outcome.
type SearchResult struct {
	// MaxRate is the largest probed rate that was sustainable (0 when even
	// the bracket floor was not).
	MaxRate float64
	// Probes lists every evaluation in search order.
	Probes []Probe
}

// SearchMaxRate bisects the arrival rate of base (whose Arrival.Rate each
// probe overwrites) for the maximum sustainable point. The log callback
// (nil ok) receives one line per probe.
func SearchMaxRate(base Config, logf func(string, ...any)) (*SearchResult, error) {
	base = base.Defaults()
	res := &SearchResult{}
	probe := func(rate float64) (bool, error) {
		cfg := base
		cfg.Arrival.Rate = rate
		r, err := Run(cfg)
		if err != nil {
			return false, err
		}
		ok := r.ServiceRate >= searchMinService
		res.Probes = append(res.Probes, Probe{Rate: rate, ServiceRate: r.ServiceRate, Sustainable: ok})
		if logf != nil {
			logf("load: probe rate=%.4f/s svc=%.2f sustainable=%v\n", rate, r.ServiceRate, ok)
		}
		return ok, nil
	}

	ok, err := probe(searchLo)
	if err != nil {
		return nil, err
	}
	if !ok {
		return res, nil // even the floor rate serves too few: MaxRate stays 0
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
