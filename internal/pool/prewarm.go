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

// prewarmed is a pair test PrewarmPairs ran ahead of an insert: the entry
// and, when the pair is feasible, its leg block.
type prewarmed struct {
	ent  *planEntry
	legs *route.LegBlock
}

// prewarmJob is one prewarm task's private state: the pair's entry, a
// throwaway leg store to fill the pair's block in, and the block. Only its
// own task writes it, before the merge reads it on the calling goroutine.
type prewarmJob struct {
	ent    *planEntry
	cand   int32
	store  *route.LegStore
	blocks [1]*route.LegBlock
}

// PrewarmPairs computes, in parallel, the pairwise shareability plans an
// imminent Insert(o, now) will run: one cost-only route DP per candidate
// neighbor whose pair the network's lower bounds do not already certify
// infeasible. Each task fills the pair's leg block in a private scratch
// store and plans over it; the results — pure functions of the member
// pair and now — are then left, on the calling goroutine and in candidate
// order, on each candidate's slot, where the following Insert's pair test
// takes them instead of planning: the cache and the pool's leg store see
// exactly what an unwarmed insert would have put there, so the pool's
// decisions are bit-identical to one. Each task's entry comes from the
// cache's spare list like a probe's: a feasible pair's joins the cache and
// is recycled on eviction like any other, and a negative pair is never
// cached (an edgeless pair can never be enumerated in a clique) — its
// entry goes back to the spare list when the insert reads it, and its block
// is dropped with its task store. With the plan cache disabled this is a
// no-op: there is nowhere to put the results, and the equivalence arms
// must stay untouched.
func (p *Pool) PrewarmPairs(o *order.Order, now float64, exec Exec) {
	if p.cache == nil || exec == nil {
		return
	}
	if _, dup := p.search(o.ID); dup {
		return
	}
	cands := p.candidatesAt(p.ix.CellOf(o.Pickup), o.ID)
	jobs := make([]prewarmJob, 0, len(cands))
	for _, c := range cands {
		cand := p.nodes[c.slot].o
		if p.certifiedInfeasible(o, cand, now) {
			continue // the insert re-derives the certificate; nothing to warm
		}
		lo, hi := o, cand
		if lo.ID > hi.ID {
			lo, hi = hi, lo
		}
		ent := p.cache.takeEntry()
		ent.setMembers([]*order.Order{lo, hi})
		jobs = append(jobs, prewarmJob{ent: ent, cand: c.slot, store: route.NewLegStore(p.planner.Net)})
	}
	if len(jobs) == 0 {
		return
	}
	tasks := make([]func(), len(jobs))
	for i := range jobs {
		j := &jobs[i]
		// Each task runs on an engine goroutine and may write only its own
		// job; TestPrewarmPairsDecisionsIdentical's goroutine-per-task arm
		// holds it to that under -race.
		tasks[i] = func() {
			lo, hi := j.ent.members[0], j.ent.members[1]
			j.blocks[0] = j.store.Fill(lo, route.NoSlot, hi, route.NoSlot, now)
			_, j.ent.expiry, j.ent.first, j.ent.feasible = p.planner.PlanGroupCostLegs(
				j.ent.orders(), now, p.opt.Capacity, j.blocks[:], j.ent.svc[:])
		}
	}
	exec.Run(tasks)
	for i := range jobs {
		j := &jobs[i]
		pw := prewarmed{ent: j.ent}
		if j.ent.feasible {
			pw.legs = j.blocks[0]
			p.legs.Adopt(pw.legs)
		}
		p.nodes[j.cand].prewarm = pw
	}
}
