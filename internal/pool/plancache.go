package pool

import (
	"watter/internal/order"
	"watter/internal/route"
)

// The clique plan cache exploits two invariants of the exact route DP:
//
//  1. Now-independence. For a fixed member set, `now` enters PlanGroup only
//     through the deadline pruning check `now + t > deadline`. Raising now
//     monotonically shrinks the feasible route set and never adds routes,
//     so while the cached minimal route R* remains dispatchable
//     (now <= τg(R*), i.e. every deadline check along R* still passes), it
//     is still present in the shrunken set and still minimal — a fresh DP
//     at the later now reclaims exactly the same dp values, parents and
//     tie-breaks along R*'s chain. Positive entries (cost, τg, service
//     times, plan) are therefore reusable verbatim until now > τg.
//  2. Monotone infeasibility. A member set with no feasible route at now
//     has none at any later now (the feasible set only shrinks), so a
//     negative entry is permanent until a member leaves the pool.
//
// Both arguments assume the pool's clock never goes backwards, which
// Algorithm 1 guarantees (inserts, ticks and drains advance monotonically).
//
// Keys are the canonical (ascending-ID) member signature, a fixed-size
// array of IDs; the pool plans every clique in canonical member order, so
// cached and fresh computations share one member indexing and stay
// bit-identical. An entry carries its members and service times inline, so a
// miss allocates the entry and nothing else. Entries are evicted
// when any member leaves the pool (Remove/RemoveGroup); a positive entry
// whose τg has passed is replanned in place at the current clock — the
// cheapest route died, but a costlier one may still be live.

// CacheStats counts plan-cache traffic over one pool lifetime.
type CacheStats struct {
	// Hits served a live positive entry; NegativeHits served a permanent
	// negative one. Both avoid a full route DP (and its leg matrix).
	Hits, NegativeHits uint64
	// Misses planned a set for the first time; Renewed replanned a positive
	// entry whose τg had passed; Evicted counts entries dropped because a
	// member left the pool.
	Misses, Renewed, Evicted uint64
	// PlansMaterialized counts full RoutePlan constructions (winning
	// cliques only); PlansReused counts wins served by an already
	// materialized group.
	PlansMaterialized, PlansReused uint64
	// PairsPruned counts insert-time pair tests settled by
	// route.PairInfeasible: no leg block, no DP, no lookup. Always 0 on a
	// network without lower bounds.
	PairsPruned uint64
}

// PlansAvoided is the number of route DPs the cache absorbed.
func (s CacheStats) PlansAvoided() uint64 { return s.Hits + s.NegativeHits }

// HitRate is PlansAvoided over all lookups.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.NegativeHits + s.Misses + s.Renewed
	if total == 0 {
		return 0
	}
	return float64(s.PlansAvoided()) / float64(total)
}

// planEntry memoizes one member set's route DP outcome. members and svc are
// in canonical (ascending-ID) order, n long; group is materialized lazily,
// only when the clique actually wins some order's best-group race (its
// Orders alias the entry's member array). evicted is set once the entry
// leaves the cache's map; members' plans lists may still hold it.
//
//det:scratch entries are written only by their constructing goroutine before cacheInsert publishes them
type planEntry struct {
	members  [route.MaxGroupSize]*order.Order
	svc      [route.MaxGroupSize]float64 // per-member service times T(L(i))
	n        int
	expiry   float64 // τg (Eq. 3)
	feasible bool
	evicted  bool
	group    *order.Group
}

// orders is the entry's member set as a slice over its own array.
func (e *planEntry) orders() []*order.Order { return e.members[:e.n] }

// setMembers copies the canonical member set into the entry (the caller's
// slice is enumeration scratch).
func (e *planEntry) setMembers(canon []*order.Order) {
	e.n = copy(e.members[:], canon)
}

// planKey is a member set's cache key: its IDs ascending, zero-padded, and
// its size — without the size {-2, -1} and {-2, -1, 0} would collide.
type planKey struct {
	ids [route.MaxGroupSize]int
	n   int
}

// memberKey builds the key of a canonical (ascending-ID) member slice.
//
//det:hotpath runs once per cache probe inside the clique enumeration; the key is a value, nothing is rendered
func memberKey(members []*order.Order) (k planKey) {
	k.n = len(members)
	for i, o := range members {
		k.ids[i] = o.ID
	}
	return k
}

// planCache is the per-pool memo. It is confined to the pool's goroutine,
// like every other piece of pool state. Its one map is keyed by member
// set; which entries an order belongs to is listed on the order's slot
// (node.plans).
type planCache struct {
	entries map[planKey]*planEntry
	stats   CacheStats
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[planKey]*planEntry)}
}

// planEntryFor returns the plan-cache entry for the canonical member set
// (orders and slots as canonical returns them) at time now, computing (or
// renewing) it when needed. With the cache disabled it returns a fresh
// transient entry — the same computation the cached path would run on a
// miss, so both modes are bit-identical decision for decision.
func (p *Pool) planEntryFor(canon []*order.Order, slots []int32, now float64) *planEntry {
	if p.cache == nil {
		ent := &planEntry{}
		ent.setMembers(canon)
		p.plan(ent, nil, now)
		return ent
	}
	key := memberKey(canon)
	if ent, ok := p.cache.entries[key]; ok {
		if p.cacheStale(ent, now) {
			p.plan(ent, p.pairBlocks(slots), now)
		}
		return ent
	}
	ent := &planEntry{}
	ent.setMembers(canon)
	p.plan(ent, p.pairBlocks(slots), now)
	p.cacheInsert(key, ent, slots)
	return ent
}

// cacheStale counts a lookup that found ent and reports whether the entry
// must be replanned: negative and live-positive entries are served
// verbatim; a positive entry whose τg passed is replanned in place at the
// current clock — the cached minimal route can no longer be dispatched, but
// a costlier route may still be feasible. A renewal that comes back
// infeasible turns the entry (permanently) negative.
func (p *Pool) cacheStale(ent *planEntry, now float64) bool {
	switch {
	case !ent.feasible:
		p.cache.stats.NegativeHits++
	case now <= ent.expiry:
		p.cache.stats.Hits++
	default:
		p.cache.stats.Renewed++
		ent.group = nil
		return true
	}
	return false
}

// cacheInsert records a freshly planned entry under its key and lists it on
// each member's slot for eviction.
func (p *Pool) cacheInsert(key planKey, ent *planEntry, slots []int32) {
	p.cache.stats.Misses++
	p.cache.entries[key] = ent
	for _, s := range slots {
		p.nodes[s].plans = append(p.nodes[s].plans, ent)
	}
}

// pairEntryFor is planEntryFor specialized for Insert's pairwise
// shareability test of the order in slot s against the candidate in slot
// c, and returns the pair's leg block along with the entry (nil when the
// test failed or the cache is off). The new order was never pooled with the
// candidate, so no entry for the pair can be cached — unless PrewarmPairs
// already ran the test, which it left on the candidate's slot. An
// infeasible pair creates no edge, and cliques are enumerated over edges
// only, so a failed test's negative outcome (and its leg block) can never
// be looked up again — persisting them would only grow the memo. Feasible
// pairs are cached normally: the refresh that follows the insert hits them
// immediately as 2-cliques. On a network with lower bounds, a pair the
// bounds already prove infeasible fails here without filling its leg block
// at all.
func (p *Pool) pairEntryFor(s, c int32, now float64) (*planEntry, *route.LegBlock) {
	canon, slots := p.canonical(s, c)
	if p.cache == nil {
		ent := &planEntry{}
		ent.setMembers(canon)
		p.plan(ent, nil, now)
		return ent, nil
	}
	key := memberKey(canon)
	if pw := p.nodes[c].prewarm; pw.ent != nil {
		// The prewarm planned the pair (a miss); this test reads it (a hit).
		p.nodes[c].prewarm = prewarmed{}
		if !pw.ent.feasible {
			p.cache.stats.Misses++
			p.cache.stats.NegativeHits++
			return pw.ent, nil
		}
		p.cacheInsert(key, pw.ent, slots)
		p.cache.stats.Hits++
		return pw.ent, pw.legs
	}
	// Probe with a reusable scratch entry: a failed test allocates nothing,
	// a successful one promotes the probe into the cache (and the next test
	// gets a fresh probe).
	ent := p.pairProbe
	if ent == nil {
		ent = &planEntry{}
	}
	ent.setMembers(canon)
	ent.group = nil
	a, b := canon[0], canon[1]
	if p.certifiedInfeasible(a, b, now) {
		p.cache.stats.PairsPruned++
		ent.feasible = false
		p.pairProbe = ent
		return ent, nil
	}
	blk := p.legs.Fill(a, p.slotRef(slots[0]), b, p.slotRef(slots[1]))
	p.blockBuf[0] = blk
	p.plan(ent, p.blockBuf[:1], now)
	if !ent.feasible {
		p.pairProbe = ent
		p.legs.Release(blk)
		return ent, nil
	}
	p.pairProbe = nil
	p.cacheInsert(key, ent, slots)
	return ent, blk
}

// certifiedInfeasible reports whether the network's lower bounds prove the
// pair unshareable at now (see route.PairInfeasible); false on networks
// without bounds.
func (p *Pool) certifiedInfeasible(a, b *order.Order, now float64) bool {
	return p.bounds != nil && route.PairInfeasible(p.bounds, a, b, now, p.opt.Capacity)
}

// plan runs the cost-only DP for the entry's members over the given pair
// blocks (nil: fresh network queries) and stores the outcome.
func (p *Pool) plan(ent *planEntry, blocks []*route.LegBlock, now float64) {
	_, ent.expiry, ent.feasible = p.planner.PlanGroupCostLegs(ent.orders(), now, p.opt.Capacity, blocks, ent.svc[:])
}

// groupFor materializes (once) the entry's winning group. Only cliques that
// win a best-group race reach here; every losing candidate stays cost-only.
// The members are pooled and pairwise adjacent: the entry was just
// considered in an enumeration.
func (p *Pool) groupFor(ent *planEntry, now float64) *order.Group {
	if ent.group != nil {
		if p.cache != nil {
			p.cache.stats.PlansReused++
		}
		return ent.group
	}
	var blocks []*route.LegBlock
	if p.legs != nil {
		slots := p.canonSlot[:ent.n]
		for i, o := range ent.orders() {
			slots[i], _ = p.slotOf(o.ID)
		}
		blocks = p.pairBlocks(slots)
	}
	plan, ok := p.planner.PlanGroupShared(ent.orders(), now, p.opt.Capacity, blocks)
	if !ok {
		// Unreachable while now <= expiry (the cost-only DP just accepted
		// this set); defensive so a caller bug degrades to "no group".
		return nil
	}
	if p.cache != nil {
		p.cache.stats.PlansMaterialized++
	}
	ent.group = &order.Group{Orders: ent.orders(), Plan: plan}
	return ent.group
}

// avgExtra is Group.AvgExtraTime computed straight from the entry's
// service-time row — the same order.ExtraTime terms in the same
// accumulation order (members are the group's Orders), so the two produce
// the same bits.
func (e *planEntry) avgExtra(now float64) float64 {
	var sum float64
	for i, o := range e.orders() {
		sum += o.ExtraTime(e.svc[i], now)
	}
	return sum / float64(e.n)
}

// evictOrder drops every cache entry involving the order in n; called
// whenever an order leaves the pool. (Its leg blocks went back to the store
// with its edges.)
func (p *Pool) evictOrder(n *node) {
	for _, ent := range n.plans {
		if !ent.evicted {
			delete(p.cache.entries, memberKey(ent.orders()))
			ent.evicted = true
			p.cache.stats.Evicted++
		}
	}
	clear(n.plans)
	n.plans = n.plans[:0]
}

// CacheStats returns a snapshot of plan-cache counters (zero-valued when
// the cache is disabled).
func (p *Pool) CacheStats() CacheStats {
	if p.cache == nil {
		return CacheStats{}
	}
	return p.cache.stats
}
