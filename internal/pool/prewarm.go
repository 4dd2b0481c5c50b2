package pool

import (
	"watter/internal/order"
	"watter/internal/route"
)

// Exec runs a batch of independent tasks — possibly in parallel — and
// returns when all have completed. The prewarm engine (internal/shard)
// implements it by fanning tasks over K goroutines; a nil Exec (or the
// serial fallback) simply runs them in order. Tasks must be pure
// computations: the caller merges their results deterministically
// afterwards, so the scheduling order cannot influence any pool decision.
type Exec interface {
	Run(tasks []func())
}

// PrewarmPairs computes, in parallel, the pairwise shareability plans an
// imminent Insert(o, now) will run: one cost-only route DP per candidate
// neighbor whose pair is neither already cached nor certified infeasible by
// the network's lower bounds. Each task plans into a
// private scratch leg store; the results — pure functions of the member
// pair and now — are then merged into the plan cache (and, for feasible
// pairs, the pool's leg store) on the calling goroutine, so the following
// Insert finds every pair test answered and the pool's decisions are
// bit-identical to an unwarmed insert. With the plan cache disabled this
// is a no-op: there is nowhere to put the results, and the equivalence
// arms must stay untouched.
func (p *Pool) PrewarmPairs(o *order.Order, now float64, exec Exec) {
	if p.cache == nil || exec == nil {
		return
	}
	if _, dup := p.nodes[o.ID]; dup {
		return
	}
	cands := p.candidatesAt(p.ix.CellOf(o.Pickup), o.ID)
	type pairJob struct {
		ent  *planEntry
		legs *route.LegStore
	}
	jobs := make([]pairJob, 0, len(cands))
	for _, candID := range cands {
		cand := p.nodes[candID]
		canon := p.canonical(o, cand.o)
		if _, ok := p.cache.entries[memberKey(canon)]; ok {
			continue
		}
		if p.certifiedInfeasible(o, cand.o, now) {
			continue // the insert re-derives the certificate; nothing to warm
		}
		ent := &planEntry{}
		ent.setMembers(canon)
		jobs = append(jobs, pairJob{ent: ent, legs: route.NewLegStore(p.planner.Net)})
	}
	if len(jobs) == 0 {
		return
	}
	tasks := make([]func(), len(jobs))
	for i := range jobs {
		j := &jobs[i]
		//det:specroot each prewarm task runs on an engine goroutine and may only fill its own job slot
		tasks[i] = func() {
			j.ent.cost, j.ent.expiry, j.ent.feasible = p.planner.PlanGroupCost(
				j.ent.orders(), now, p.opt.Capacity, j.legs, j.ent.svc[:])
		}
	}
	exec.Run(tasks)
	// Deterministic merge in candidate order. Negative pairs are cached
	// too — monotone infeasibility makes them correct at any later now,
	// and the parallel DP already paid for the answer — but only until the
	// imminent Insert consumes them: an edgeless pair can never be
	// enumerated in a clique, so FlushPrewarmedNegatives drops them right
	// after, exactly as pairEntryFor never persists a failed test. Their
	// leg blocks are never adopted for the same reason.
	for i := range jobs {
		j := &jobs[i]
		key := memberKey(j.ent.orders())
		p.cacheInsert(key, j.ent)
		if j.ent.feasible {
			p.legs.Adopt(j.legs)
		} else {
			p.prewarmNeg = append(p.prewarmNeg, key)
		}
	}
}

// FlushPrewarmedNegatives drops the negative pair entries the last
// PrewarmPairs merged. The caller invokes it after the Insert that
// consumed them (each is looked up exactly once — an infeasible pair
// creates no edge and is never enumerated again), returning the cache to
// the footprint a sequential, unwarmed insert would have left.
func (p *Pool) FlushPrewarmedNegatives() {
	if p.cache == nil || len(p.prewarmNeg) == 0 {
		p.prewarmNeg = p.prewarmNeg[:0]
		return
	}
	for _, key := range p.prewarmNeg {
		delete(p.cache.entries, key)
		// byOrder keeps the stale entries; eviction skips them harmlessly.
	}
	p.prewarmNeg = p.prewarmNeg[:0]
}
