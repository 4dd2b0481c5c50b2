package pool

import (
	"slices"

	"watter/internal/order"
	"watter/internal/route"
)

// The clique plan cache exploits three invariants of the exact route DP:
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
//  3. Subset feasibility, on a network whose costs are exact
//     (roadnet.ExactNetwork). Dropping one member's two stops from a
//     feasible route of a set leaves a route of the subset that arrives at
//     every remaining stop no later (the triangle inequality, exact because
//     every sum of legs is) and never carries more riders, so every subset
//     of a feasible set is feasible at the same now. With 2, a set one of
//     whose cached (k−1)-subsets is negative is negative, and a miss or
//     renewal of it is decided so without a DP (CacheStats.PrefixPruned).
//     The enumeration prefix (the set minus its last enumerated member) is
//     one such subset, and its verdict is known without a lookup.
//
// The arguments assume the pool's clock never goes backwards, which
// Algorithm 1 guarantees (inserts, ticks and drains advance monotonically).
//
// Keys are the canonical (ascending-ID) member signature, a fixed-size
// array of IDs; the pool plans every clique in canonical member order, so
// cached and fresh computations share one member indexing and stay
// bit-identical. A positive entry carries its members and service times
// inline; a miss plans into a reusable probe entry and only a positive
// outcome is promoted, taking the probe over. A negative key maps to the
// cache's one sentinel entry, so negative knowledge costs no heap object.
// A positive entry whose τg has passed is replanned in place at the current
// clock — the cheapest route died, but a costlier one may still be live.
//
// What is cached is only what cannot be re-derived. A set of the pool's
// largest clique size that invariant 3 decides is not recorded, and a
// renewal so decided evicts its key: no larger set has it as a subset, and
// the subset that decided it stays cached for as long as the set can be
// enumerated, because the subset loses a member only when the set does, so
// every later lookup decides the set again without a DP. A smaller decided
// set is recorded negative, since it may decide a larger one. No pair is
// ever cached negative (a failed pair test records nothing, and a 2-clique
// is looked up only over a live edge, whose τe is its entry's τg), so only
// sets of four or more members are decided.
//
// Every cached key holds a record in a slab (planRec: the key, its hash, its
// entry and a generation), and the cache finds a key through index, an
// open-addressed table of record numbers probed linearly from the key's
// hash; a deletion shifts the rest of its probe run back, so no tombstone
// is left. Each member's slot lists refs (record, generation) to its keys'
// records. When an order leaves the pool (Remove/RemoveGroup) its refs
// evict their keys; a ref whose record a co-member already evicted no
// longer matches the record's generation and is skipped. Before a slot's
// ref list grows, it drops such stale refs in place, so a long-lived order
// whose co-members churn keeps a list near its live refs; when that frees
// under a quarter of the list, the list doubles, so each ref costs O(1)
// compaction work amortized. An evicted entry
// goes on the cache's spare list, where the next probe takes it, so
// steady-state misses allocate nothing. A best group is a copy of its entry
// (node.best), so nothing outside the cache reaches an entry once it is
// evicted.

// CacheStats counts plan-cache traffic over one pool lifetime. A lookup
// counts once: as a hit, a negative hit, a miss, a renewal or a subset
// decision.
type CacheStats struct {
	// Hits served a live positive entry; NegativeHits served a permanent
	// negative one. Both avoid a full route DP (and its leg matrix).
	Hits, NegativeHits uint64
	// Misses planned a set for the first time; Renewed replanned a positive
	// entry whose τg had passed. Misses + Renewed is the number of route DPs
	// the pool ran, failed pair tests aside. Evicted counts keys dropped: a
	// member left the pool, or a renewal of a largest set was decided by a
	// subset.
	Misses, Renewed, Evicted uint64
	// PlansMaterialized counts routes planned for a best group: one per
	// PlanBest at dispatch time, and one per BestGroup call.
	PlansMaterialized uint64
	// PairsPruned counts insert-time pair tests settled by
	// route.PairInfeasible: no leg block, no DP, no lookup. Always 0 on a
	// network without lower bounds.
	PairsPruned uint64
	// PrefixPruned counts the misses and renewals decided negative without
	// a DP because a (k−1)-subset of the set was cached negative
	// (invariant 3). Always 0 on a network whose costs are not exact.
	PrefixPruned uint64
}

// PlansAvoided is the number of lookups the cache answered without a route
// DP.
func (s CacheStats) PlansAvoided() uint64 { return s.Hits + s.NegativeHits + s.PrefixPruned }

// HitRate is PlansAvoided over all lookups.
func (s CacheStats) HitRate() float64 {
	total := s.PlansAvoided() + s.Misses + s.Renewed
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
// One goroutine writes an entry at a time: the pool's, or the prewarm task
// it is handed to between PrewarmPairs taking it and exec.Run returning.
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

// without returns the key of the set minus its i-th member.
func (k planKey) without(i int) planKey {
	copy(k.ids[i:k.n], k.ids[i+1:k.n])
	k.n--
	k.ids[k.n] = 0
	return k
}

// hash mixes the key's IDs and size (Fibonacci hashing: the high bits of the
// product chain depend on every input bit). The index takes its top bits.
func (k *planKey) hash() uint32 {
	h := uint64(k.n)
	for _, id := range k.ids[:k.n] {
		h = (h ^ uint64(id)) * 0x9e3779b97f4a7c15
	}
	return uint32(h >> 32)
}

// planCache is the per-pool memo. It is confined to the pool's goroutine,
// like every other piece of pool state. Every cached key holds a record in
// the slab recs, found through index; each member's slot lists refs to the
// records of its keys (node.plans), for eviction.
type planCache struct {
	// index holds, per position, 1 + the number of the record whose key
	// probes there, or 0 when empty. Its length is a power of two, at least
	// twice the number of cached keys (live records); a key's probe run
	// starts at the top bits of its hash (shift drops the rest).
	index []int32
	shift uint8
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

// planRec is one cached key's record: the key, its hash and its entry. gen
// moves on when the key is evicted, which turns every ref to the record
// stale.
type planRec struct {
	key  planKey
	ent  *planEntry
	gen  uint32
	hash uint32
}

// planRef names a slab record from a member's slot; it is stale once the
// record's generation moved on (a co-member evicted the key).
type planRef struct {
	rec int32
	gen uint32
}

// initialIndexBits sizes a new cache's index: 64 positions.
const initialIndexBits = 6

func newPlanCache() *planCache {
	return &planCache{index: make([]int32, 1<<initialIndexBits), shift: 32 - initialIndexBits}
}

// find returns the record number of the key and its index position, or -1
// and the empty position where the key would go.
func (c *planCache) find(key *planKey) (rec int32, at int) {
	h := key.hash()
	mask := len(c.index) - 1
	for at = int(h >> c.shift); ; at = (at + 1) & mask {
		r := c.index[at] - 1
		if r < 0 {
			return -1, at
		}
		if c.recs[r].hash == h && c.recs[r].key == *key {
			return r, at
		}
	}
}

// keys returns the number of cached keys: every live record is indexed.
func (c *planCache) keys() int { return len(c.recs) - len(c.free) }

// cached returns the entry the key maps to, or nil when it is not cached.
func (c *planCache) cached(key planKey) *planEntry {
	if r, _ := c.find(&key); r >= 0 {
		return c.recs[r].ent
	}
	return nil
}

// planEntryFor returns the plan-cache entry for the canonical member set
// (orders and slots as canonical returns them) at time now, computing (or
// renewing) it when needed. prefixNegative reports that the set without the
// member the enumeration added last is negative at now. On an exact network
// a miss or renewal is decided negative without a DP when that prefix or
// another (k−1)-subset is negative (invariant 3).
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
	c := p.cache
	key := memberKey(canon)
	r, at := c.find(&key)
	var ent *planEntry // the cached entry, nil on a miss
	if r >= 0 {
		ent = c.recs[r].ent
		switch {
		case !ent.feasible:
			c.stats.NegativeHits++
			return ent
		case now <= ent.expiry:
			c.stats.Hits++
			return ent
		}
	}
	if p.subsetNegative(key, prefixNegative) {
		c.stats.PrefixPruned++
		switch {
		case len(canon) == p.opt.MaxGroupSize:
			// A largest set is not recorded, and a renewal evicts its key.
			if ent != nil {
				c.evict(planRef{r, c.recs[r].gen})
			}
			return &c.negative
		case ent != nil:
			ent.feasible = false
			return ent
		}
		return p.cacheInsert(at, key, &c.negative, slots)
	}
	if ent != nil {
		c.stats.Renewed++
		p.plan(ent, p.pairBlocks(slots), now)
		return ent
	}
	c.stats.Misses++
	ent = p.probeEntry(canon)
	p.plan(ent, p.pairBlocks(slots), now)
	if !ent.feasible {
		return p.cacheInsert(at, key, &c.negative, slots)
	}
	p.probe = nil
	return p.cacheInsert(at, key, ent, slots)
}

// subsetNegative reports whether invariant 3 decides the set of key
// negative: the network is exact and the prefix, whose verdict the caller
// passes, or a (k−1)-subset is cached negative. A triple's subsets are
// pairs, which are never cached negative, so only larger sets look their
// subsets up.
func (p *Pool) subsetNegative(key planKey, prefixNegative bool) bool {
	if !p.exact {
		return false
	}
	if prefixNegative {
		return true
	}
	if key.n <= 3 {
		return false
	}
	for i := range key.ids[:key.n] {
		if ent := p.cache.cached(key.without(i)); ent != nil && !ent.feasible {
			return true
		}
	}
	return false
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

// cacheInsert records ent under its key at the empty index position at
// (as find returned it), takes a record for the key and lists a ref to it
// on each member's slot. It returns ent.
func (p *Pool) cacheInsert(at int, key planKey, ent *planEntry, slots []int32) *planEntry {
	c := p.cache
	var r planRef
	if k := len(c.free); k > 0 {
		r.rec = c.free[k-1]
		c.free = c.free[:k-1]
	} else {
		r.rec = int32(len(c.recs))
		c.recs = append(c.recs, planRec{})
	}
	rec := &c.recs[r.rec]
	rec.key, rec.ent, rec.hash = key, ent, key.hash()
	r.gen = rec.gen
	c.index[at] = r.rec + 1
	if 2*c.keys() > len(c.index) {
		c.grow()
	}
	for _, s := range slots {
		n := &p.nodes[s]
		if len(n.plans) == cap(n.plans) {
			n.plans = c.compact(n.plans)
			if 4*len(n.plans) > 3*cap(n.plans) {
				// Compaction freed under a quarter of the list: double it,
				// so a list of mostly live refs is scanned once per doubling.
				n.plans = slices.Grow(n.plans, len(n.plans))
			}
		}
		n.plans = append(n.plans, r)
	}
	return ent
}

// compact drops the stale refs of a slot's list in place and returns the
// rest, in order.
func (c *planCache) compact(refs []planRef) []planRef {
	kept := refs[:0]
	for _, r := range refs {
		if c.recs[r.rec].gen == r.gen {
			kept = append(kept, r)
		}
	}
	return kept
}

// grow doubles the index and re-places every cached key.
func (c *planCache) grow() {
	old := c.index
	c.index = make([]int32, 2*len(old))
	c.shift--
	mask := len(c.index) - 1
	for _, v := range old {
		if v == 0 {
			continue
		}
		at := int(c.recs[v-1].hash >> c.shift)
		for c.index[at] != 0 {
			at = (at + 1) & mask
		}
		c.index[at] = v
	}
}

// unindex empties index position at and shifts the rest of its probe run
// back, so every key stays reachable from its home position without a
// tombstone.
func (c *planCache) unindex(at int) {
	mask := len(c.index) - 1
	for next := (at + 1) & mask; c.index[next] != 0; next = (next + 1) & mask {
		home := int(c.recs[c.index[next]-1].hash >> c.shift)
		// The key at next may move to at when at lies on its probe run,
		// from home to next.
		if (next-home)&mask >= (next-at)&mask {
			c.index[at] = c.index[next]
			at = next
		}
	}
	c.index[at] = 0
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
	if pw := p.nodes[c].prewarm; pw.ent != nil {
		// The prewarm ran this test's DP; the test counts as an unwarmed one
		// would: a positive pair is a miss, a failed one leaves no trace.
		p.nodes[c].prewarm = prewarmed{}
		if !pw.ent.feasible {
			p.cache.spare = append(p.cache.spare, pw.ent)
			return &p.cache.negative, nil
		}
		p.cache.stats.Misses++
		p.pairInsert(canon, pw.ent, slots)
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
	blk := p.legs.Fill(a, p.slotRef(slots[0]), b, p.slotRef(slots[1]), now)
	p.blockBuf[0] = blk
	p.plan(ent, p.blockBuf[:1], now)
	if !ent.feasible {
		p.legs.Release(blk)
		return ent, nil
	}
	p.probe = nil
	p.cache.stats.Misses++
	p.pairInsert(canon, ent, slots)
	return ent, blk
}

// pairInsert records a feasible pair's entry. The pair was never pooled
// before, so its key is not cached.
func (p *Pool) pairInsert(canon []*order.Order, ent *planEntry, slots []int32) {
	key := memberKey(canon)
	_, at := p.cache.find(&key)
	p.cacheInsert(at, key, ent, slots)
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

// evict drops the key r names, unless r is stale: it takes the key out of
// the index, frees its record and puts its entry, unless it is the negative
// sentinel, on the spare list.
func (c *planCache) evict(r planRef) {
	rec := &c.recs[r.rec]
	if rec.gen != r.gen {
		return
	}
	mask := len(c.index) - 1
	at := int(rec.hash >> c.shift)
	for c.index[at] != r.rec+1 {
		if c.index[at] == 0 {
			// The probe run ended without the record: a live ref named a
			// record that is not indexed.
			panic("pool: evicting a plan-cache record the index does not hold")
		}
		at = (at + 1) & mask
	}
	c.unindex(at)
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
