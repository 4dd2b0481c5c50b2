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
//     times, first stop) are therefore reusable verbatim until now > τg, and
//     so is the route itself: planning the members at any clock in the
//     entry's span up to τg writes the same stops and arrivals, which is
//     what lets a best group be planned only when it is dispatched.
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
// bit-identical. A positive entry carries its members and service times
// inline; a miss plans into a reusable probe entry and only a positive
// outcome is promoted, taking the probe over. A negative key maps to the
// cache's one sentinel entry, so negative knowledge costs no heap object.
// Keys are evicted when any member leaves the pool (Remove/RemoveGroup)
// through a record slab (planRec, planRef); an evicted entry goes on the
// cache's spare list, where the next probe takes it, so steady-state misses
// allocate nothing. A best group is a copy of its entry (node.best), so
// nothing outside the cache reaches an entry once it is evicted. A positive
// entry whose τg has passed is replanned in place at the current clock —
// the cheapest route died, but a costlier one may still be live.
//
// On a network whose costs are exact (roadnet.ExactNetwork), a third
// invariant holds bit for bit:
//
//  3. Subset feasibility. Dropping one member's two stops from a feasible
//     route of a set leaves a route of the subset that arrives at every
//     remaining stop no later (the triangle inequality, exact because every
//     sum of legs is) and never carries more riders, so the subset is
//     feasible at the same now. A clique whose prefix (the clique minus its
//     last enumerated member) is negative is therefore negative too, and is
//     recorded so without a DP (CacheStats.PrefixPruned).

// CacheStats counts plan-cache traffic over one pool lifetime.
type CacheStats struct {
	// Hits served a live positive entry; NegativeHits served a permanent
	// negative one. Both avoid a full route DP (and its leg matrix).
	Hits, NegativeHits uint64
	// Misses planned a set for the first time; Renewed replanned a positive
	// entry whose τg had passed; Evicted counts entries dropped because a
	// member left the pool.
	Misses, Renewed, Evicted uint64
	// PlansMaterialized counts routes planned for a best group: one per
	// PlanBest at dispatch time, and one per BestGroup call.
	PlansMaterialized uint64
	// PairsPruned counts insert-time pair tests settled by
	// route.PairInfeasible: no leg block, no DP, no lookup. Always 0 on a
	// network without lower bounds.
	PairsPruned uint64
	// PrefixPruned counts the misses and renewals (a subset of Misses and
	// Renewed) recorded negative because the clique's prefix was negative,
	// without a DP. Always 0 on a network whose costs are not exact.
	PrefixPruned uint64
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
// in canonical (ascending-ID) order, n long, and members[first]'s pickup is
// the route's first stop. The cache's negative sentinel has no members. A
// pooled order's best group is a copy of the entry that won (node.best):
// the entry itself is replanned in place and recycled once its key is
// evicted.
//
//det:scratch one goroutine writes an entry at a time: the pool's, or the prewarm task it is handed to between PrewarmPairs taking it and exec.Run returning
type planEntry struct {
	members  [route.MaxGroupSize]*order.Order
	svc      [route.MaxGroupSize]float64 // per-member service times T(L(i))
	n        int
	first    int     // the member whose pickup starts the route
	expiry   float64 // τg (Eq. 3)
	feasible bool
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
func memberKey(members []*order.Order) (k planKey) {
	k.n = len(members)
	for i, o := range members {
		k.ids[i] = o.ID
	}
	return k
}

// planCache is the per-pool memo. It is confined to the pool's goroutine,
// like every other piece of pool state. Its one map is keyed by member
// set; every cached key also holds a record in the slab recs, and each
// member's slot lists refs to the records of its keys (node.plans), for
// eviction.
type planCache struct {
	entries map[planKey]*planEntry
	// negative is the entry every negative miss maps its key to. Nothing
	// writes it: it is never feasible, so it is never renewed, adopted or
	// recycled.
	negative planEntry
	recs     []planRec
	free     []int32 // evicted records, reused last-freed first
	// spare holds evicted entries for the next probe; nothing else reaches
	// them.
	spare []*planEntry
	stats CacheStats
}

// planRec is one cached key's eviction record: the key and its entry. gen
// moves on when the key is evicted, which turns every ref to the record
// stale.
type planRec struct {
	key planKey
	ent *planEntry
	gen uint32
}

// planRef names a slab record from a member's slot; it is stale once the
// record's generation moved on (a co-member evicted the key).
type planRef struct {
	rec int32
	gen uint32
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[planKey]*planEntry)}
}

// planEntryFor returns the plan-cache entry for the canonical member set
// (orders and slots as canonical returns them) at time now, computing (or
// renewing) it when needed. prefixNegative reports that the set without its
// last enumerated member is negative at now; on an exact network a miss or
// renewal then records the set negative without planning it (invariant 3).
// With the cache disabled it returns a fresh transient entry — the same
// computation the cached path would run on a miss, so both modes are
// bit-identical decision for decision.
func (p *Pool) planEntryFor(canon []*order.Order, slots []int32, now float64, prefixNegative bool) *planEntry {
	if p.cache == nil {
		ent := &planEntry{}
		ent.setMembers(canon)
		p.plan(ent, nil, now)
		return ent
	}
	prune := prefixNegative && p.exact
	key := memberKey(canon)
	if ent, ok := p.cache.entries[key]; ok {
		if p.cacheStale(ent, now) {
			if prune {
				p.cache.stats.PrefixPruned++
				ent.feasible = false
			} else {
				p.plan(ent, p.pairBlocks(slots), now)
			}
		}
		return ent
	}
	if prune {
		p.cache.stats.PrefixPruned++
		return p.cacheInsert(key, &p.cache.negative, slots)
	}
	ent := p.probeEntry(canon)
	p.plan(ent, p.pairBlocks(slots), now)
	if !ent.feasible {
		return p.cacheInsert(key, &p.cache.negative, slots)
	}
	p.probe = nil
	return p.cacheInsert(key, ent, slots)
}

// probeEntry returns the pool's reusable scratch entry set to the canonical
// members: a miss or pair test plans into it, and only a positive outcome
// that the cache keeps takes it over (clearing p.probe, so the next probe
// is a spare or, with none left, a fresh entry). The probe is only ever
// served negative.
func (p *Pool) probeEntry(canon []*order.Order) *planEntry {
	if p.probe == nil {
		p.probe = p.cache.takeEntry()
	}
	ent := p.probe
	ent.setMembers(canon)
	return ent
}

// takeEntry returns a spare entry, or a new one when none is spare. Every
// field of a spare entry is overwritten by the plan that fills it.
func (c *planCache) takeEntry() *planEntry {
	k := len(c.spare)
	if k == 0 {
		return &planEntry{}
	}
	ent := c.spare[k-1]
	c.spare[k-1] = nil
	c.spare = c.spare[:k-1]
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
		return true
	}
	return false
}

// cacheInsert records a freshly planned entry under its key, takes an
// eviction record for the key and lists a ref to it on each member's slot.
// It returns ent.
func (p *Pool) cacheInsert(key planKey, ent *planEntry, slots []int32) *planEntry {
	c := p.cache
	c.stats.Misses++
	c.entries[key] = ent
	var r planRef
	if k := len(c.free); k > 0 {
		r.rec = c.free[k-1]
		c.free = c.free[:k-1]
	} else {
		r.rec = int32(len(c.recs))
		c.recs = append(c.recs, planRec{})
	}
	rec := &c.recs[r.rec]
	rec.key, rec.ent = key, ent
	r.gen = rec.gen
	for _, s := range slots {
		p.nodes[s].plans = append(p.nodes[s].plans, r)
	}
	return ent
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
			p.cache.spare = append(p.cache.spare, pw.ent)
			return &p.cache.negative, nil
		}
		p.cacheInsert(key, pw.ent, slots)
		p.cache.stats.Hits++
		return pw.ent, pw.legs
	}
	// Probe with the reusable scratch entry: a failed test allocates
	// nothing, a successful one promotes the probe into the cache.
	ent := p.probeEntry(canon)
	a, b := canon[0], canon[1]
	if p.certifiedInfeasible(a, b, now) {
		p.cache.stats.PairsPruned++
		ent.feasible = false
		return ent, nil
	}
	blk := p.legs.Fill(a, p.slotRef(slots[0]), b, p.slotRef(slots[1]))
	p.blockBuf[0] = blk
	p.plan(ent, p.blockBuf[:1], now)
	if !ent.feasible {
		p.legs.Release(blk)
		return ent, nil
	}
	p.probe = nil
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
	_, ent.expiry, ent.first, ent.feasible = p.planner.PlanGroupCostLegs(ent.orders(), now, p.opt.Capacity, blocks, ent.svc[:])
}

// avgExtra is Group.AvgExtraTime computed straight from the entry's
// service-time row — the same order.ExtraTime terms in the same
// accumulation order (members are the planned group's Orders), so the two
// produce the same bits.
func (e *planEntry) avgExtra(now float64) float64 {
	var sum float64
	for i, o := range e.orders() {
		sum += o.ExtraTime(e.svc[i], now)
	}
	return sum / float64(e.n)
}

// has reports whether the order is one of the entry's members.
func (e *planEntry) has(id int) bool {
	for _, o := range e.orders() {
		if o.ID == id {
			return true
		}
	}
	return false
}

// evictOrder drops every cached key involving the order in n; called
// whenever an order leaves the pool. A ref whose record a co-member already
// evicted is stale and skipped. (Its leg blocks went back to the store with
// its edges.)
func (p *Pool) evictOrder(n *node) {
	for _, r := range n.plans {
		p.cache.evict(r)
	}
	n.plans = n.plans[:0]
}

// evict drops the key r names, unless r is stale, frees its record and
// puts its entry, unless it is the negative sentinel, on the spare list.
func (c *planCache) evict(r planRef) {
	rec := &c.recs[r.rec]
	if rec.gen != r.gen {
		return
	}
	delete(c.entries, rec.key)
	if ent := rec.ent; ent != &c.negative {
		c.spare = append(c.spare, ent)
	}
	rec.ent = nil
	rec.gen++
	c.free = append(c.free, r.rec)
	c.stats.Evicted++
}

// CacheStats returns a snapshot of plan-cache counters (zero-valued when
// the cache is disabled).
func (p *Pool) CacheStats() CacheStats {
	if p.cache == nil {
		return CacheStats{}
	}
	return p.cache.stats
}
