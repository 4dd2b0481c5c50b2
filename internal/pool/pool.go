// Package pool implements the temporal shareability graph (paper Section
// IV): the order pool at the heart of WATTER. Orders are nodes; an edge
// (o_i, o_j, τe) records that the two orders can share a feasible route
// until timestamp τe. Shareable groups are k-cliques (Theorem IV.1 makes
// the clique a necessary condition; the route planner provides the
// sufficient check), and every pooled order keeps a pointer to its current
// best group — the clique whose minimal-cost route gives the smallest
// average extra time.
//
// The graph is stored in dense slots (DESIGN.md §5, "Pool slots"): each
// pooled order occupies one entry of a slot array, reused through a free
// list once the order leaves and stamped with a generation that changes on
// every reuse. Adjacency is a slice per slot sorted by neighbor ID, the
// pooled orders are listed in ascending ID, and everything kept per order —
// best group, plan-cache membership, refresh marks — lives on its slot, so
// no walk of the graph hashes an order ID and every walk already runs in
// ID order.
//
// Best-group maintenance is the system's hot path, so the pool memoizes
// aggressively (see plancache.go): every considered clique is first
// resolved through a plan cache keyed by its sorted member signature, the
// cost-only route DP assembles leg matrices from per-pair blocks filled at
// edge-creation time and kept on the pair's adjacency entries, and only
// cliques that actually win a best-group race materialize a RoutePlan. All
// of it is behaviorally invisible — Options.DisablePlanCache turns every
// memo off and the pool makes bit-identical decisions either way.
package pool

import (
	"cmp"
	"math"
	"slices"

	"watter/internal/gridindex"
	"watter/internal/order"
	"watter/internal/roadnet"
	"watter/internal/route"
)

// Options tunes the pool's pruning heuristics.
type Options struct {
	// Capacity bounds both group rider counts and clique size.
	Capacity int
	// MaxGroupSize caps clique size independently of capacity (the planner
	// rejects groups above route.MaxGroupSize anyway).
	MaxGroupSize int
	// CandidateRadius is the spatial prefilter in grid cells: only orders
	// whose pickup lies within this Chebyshev cell distance are tested for
	// shareability. Negative disables the prefilter (exact, slower).
	CandidateRadius int
	// DisablePlanCache turns off the clique plan cache and the per-edge
	// leg blocks, forcing every best-group refresh to replan from
	// scratch. Decisions are bit-identical either way (the caches memoize
	// pure functions of the member set); the switch exists for the
	// equivalence tests and FuzzPoolOps's cache-free twin.
	DisablePlanCache bool
}

// DefaultOptions matches the paper's defaults (capacity 4, 10x10 grid
// prefilter of radius 2).
func DefaultOptions() Options {
	return Options{Capacity: 4, MaxGroupSize: 4, CandidateRadius: 2}
}

// edge is a shareability relation seen from one endpoint: the neighbor, the
// pair's expiration timestamp and the pair's leg block. Both endpoints hold
// an entry with the same expiry and block.
type edge struct {
	id     int             // neighbor order ID; adjacency is sorted by it
	slot   int32           // neighbor slot
	expiry float64         // τe: latest dispatch time keeping the pair feasible
	legs   *route.LegBlock // nil when the plan cache is off
}

// ref names a pooled order by ID and slot: the entries of the live list,
// the cell buckets and the candidate lists.
type ref struct {
	id   int
	slot int32
}

func byID(a, b ref) int { return cmp.Compare(a.id, b.id) }

// node is one slot: a pooled order plus adjacency, or, with o nil, a free
// slot waiting in the free list. A free slot keeps its slices' capacity
// and its generation; the next order to take it bumps gen.
type node struct {
	o    *order.Order
	gen  uint32
	cell int // pickup cell in the spatial index
	adj  []edge
	best *order.Group
	// bestExpiry is τg of the best group (Eq. 3): the latest dispatch time
	// at which the group's plan still meets every member deadline.
	bestExpiry float64
	// plans lists refs to the eviction records of the plan-cache keys the
	// order is a member of, for eviction when it leaves. It may hold stale
	// refs (a co-member left first); eviction skips those.
	plans []planRef
	// prewarm is the pair test PrewarmPairs ran for this order and the
	// order about to be inserted; the insert consumes it.
	prewarm prewarmed
	// touched and improveMark hold the pool's mark of the ExpireEdges or
	// refreshBest call that last flagged the slot; improve is valid while
	// improveMark is the current refresh's mark.
	touched     uint64
	improveMark uint64
	improve     improved
}

// Pool is the temporal shareability graph.
type Pool struct {
	planner *route.Planner
	ix      *gridindex.Index
	opt     Options

	nodes []node  // slot array; only grows to the peak pool size
	free  []int32 // free slots, reused last-freed first
	live  []ref   // pooled orders, ascending ID
	cells [][]ref // cell -> orders with pickup in the cell
	mark  uint64  // last mark handed to ExpireEdges or refreshBest
	// lastAt is where the last search in live ended: a hint, checked
	// against the ID it is used for.
	lastAt int

	// Memoization (nil when Options.DisablePlanCache): the clique plan
	// cache and the leg-block store. Lifetime is the pool's — one
	// simulation run.
	cache *planCache
	legs  *route.LegStore
	// bounds is the network's lower-bound capability, nil when it has none
	// (closed-form cities) or when memoization is off — the uncached pool is
	// also the reference the pair certificate is tested against.
	bounds roadnet.BoundedNetwork
	// exact is set when the network's costs are exact enough for the
	// prefix rule (plancache.go, invariant 3); false when memoization is
	// off.
	exact bool

	// Reusable scratch for the maintenance hot path. The pool is
	// single-goroutine (each simulation run owns its pool), so plain
	// fields suffice.
	candBuf   []ref                            // candidates()
	cliqueBuf []ref                            // enumerateCliques candidate stack
	memberBuf []int32                          // enumerateCliques member stack
	canonSlot [route.MaxGroupSize]int32        // canonical (sorted-by-ID) member view
	canonOrd  [route.MaxGroupSize]*order.Order // the same members' orders
	blockBuf  [maxPairs]*route.LegBlock        // a group's pair blocks
	improved  []int32                          // refreshBest's improved members, first seen first
	probe     *planEntry                       // reusable scratch for misses and pair tests

	// Demand distributions over cells, maintained incrementally; these are
	// the MDP state's sO vectors. demandGen counts their edits. It is a
	// plain field: only Insert and dropNode write it, both on the job's
	// committing goroutine — prewarm tasks must not touch it.
	pickupDemand  gridindex.Distribution
	dropoffDemand gridindex.Distribution
	demandGen     uint64
}

// minExactQuantum is the smallest roadnet.ExactNetwork quantum the prefix
// rule accepts. The route DP keeps the first of two arrivals within 1e-12 s
// of each other; arrivals that are whole multiples of a quantum above that
// band never fall inside it, so the DP's minima and verdicts are exact.
const minExactQuantum = 0x1p-30

// maxPairs is the number of member pairs of the largest plannable group.
const maxPairs = route.MaxGroupSize * (route.MaxGroupSize - 1) / 2

// improved tracks, during one refreshBest enumeration, the best candidate
// seen so far for a member other than the refreshed order.
type improved struct {
	avg float64
	ent *planEntry
}

// New builds an empty pool.
func New(planner *route.Planner, ix *gridindex.Index, opt Options) *Pool {
	if opt.Capacity <= 0 {
		opt.Capacity = 4
	}
	if opt.MaxGroupSize <= 0 || opt.MaxGroupSize > route.MaxGroupSize {
		opt.MaxGroupSize = min(opt.Capacity, route.MaxGroupSize)
	}
	p := &Pool{
		planner:       planner,
		ix:            ix,
		opt:           opt,
		cells:         make([][]ref, ix.NumCells()),
		pickupDemand:  ix.NewDistribution(),
		dropoffDemand: ix.NewDistribution(),
	}
	if !opt.DisablePlanCache {
		p.cache = newPlanCache()
		p.legs = route.NewLegStore(planner.Net)
		p.bounds, _ = planner.Net.(roadnet.BoundedNetwork)
		if e, ok := planner.Net.(roadnet.ExactNetwork); ok {
			p.exact = e.CostQuantum() >= minExactQuantum
		}
	}
	return p
}

// search returns the position of id in the live list and whether it is
// pooled there. Callers mostly walk an AppendOrderIDs snapshot in order
// and ask about each order a few times in a row, so the position the last
// search found, and the one after it, are tried before the binary search.
func (p *Pool) search(id int) (int, bool) {
	for at := p.lastAt; at < len(p.live) && at <= p.lastAt+1; at++ {
		if p.live[at].id == id {
			p.lastAt = at
			return at, true
		}
	}
	lo, hi := 0, len(p.live)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.live[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	p.lastAt = lo
	return lo, lo < len(p.live) && p.live[lo].id == id
}

// searchEdge returns the position of the neighbor id in an adjacency list
// and whether it is there.
func searchEdge(adj []edge, id int) (int, bool) {
	lo, hi := 0, len(adj)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if adj[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(adj) && adj[lo].id == id
}

// slotOf returns the slot of a pooled order.
func (p *Pool) slotOf(id int) (int32, bool) {
	if at, ok := p.search(id); ok {
		return p.live[at].slot, true
	}
	return -1, false
}

// slotRef names a slot, with its current generation, to the leg store.
func (p *Pool) slotRef(s int32) route.Slot {
	return route.Slot{Index: s, Gen: p.nodes[s].gen}
}

// Len returns the number of pooled orders.
func (p *Pool) Len() int { return len(p.live) }

// Contains reports whether the order is pooled.
func (p *Pool) Contains(id int) bool { _, ok := p.search(id); return ok }

// Order returns a pooled order by ID (nil if absent).
func (p *Pool) Order(id int) *order.Order {
	if s, ok := p.slotOf(id); ok {
		return p.nodes[s].o
	}
	return nil
}

// AppendOrderIDs appends the pooled order IDs to dst in ascending order
// and returns the extended slice: a snapshot for deterministic iteration
// that stays valid while the caller removes orders (the periodic check
// removes group members as it walks it). Callers keep dst as a buffer.
func (p *Pool) AppendOrderIDs(dst []int) []int {
	for _, r := range p.live {
		dst = append(dst, r.id)
	}
	return dst
}

// OrderIDs is AppendOrderIDs into a fresh slice (the repository benchmark's
// pool replay takes one per check).
func (p *Pool) OrderIDs() []int {
	return p.AppendOrderIDs(make([]int, 0, len(p.live)))
}

// FillDemand writes normalized copies of the current pickup and dropoff
// demand histograms (MDP feature sO) into the caller's histograms, one
// entry per cell of the pool's index.
//
//det:hotpath the threshold source's snapshot rebuild; writes only the caller's histograms
func (p *Pool) FillDemand(pickup, dropoff gridindex.Distribution) {
	copy(pickup, p.pickupDemand)
	copy(dropoff, p.dropoffDemand)
	pickup.Normalize()
	dropoff.Normalize()
}

// DemandGeneration returns a counter that moves whenever the demand
// histograms do: while it stands still, FillDemand writes the same values.
func (p *Pool) DemandGeneration() uint64 { return p.demandGen }

// Insert adds an order at time now: the node is created, shareability
// edges to candidate neighbors are discovered, and best groups of the new
// order and its neighbors are refreshed. Returns the number of edges added.
func (p *Pool) Insert(o *order.Order, now float64) int {
	at, dup := p.search(o.ID)
	if dup {
		return 0
	}
	s := p.takeSlot()
	n := &p.nodes[s]
	n.o = o
	n.gen++
	n.cell = p.ix.CellOf(o.Pickup)
	p.live = slices.Insert(p.live, at, ref{o.ID, s})
	p.cells[n.cell] = append(p.cells[n.cell], ref{o.ID, s})
	p.pickupDemand[n.cell]++
	p.dropoffDemand[p.ix.CellOf(o.Dropoff)]++
	p.demandGen++

	added := 0
	for _, c := range p.candidates(n) {
		// The pairwise test doubles as the 2-clique's cache fill and fills
		// the pair's leg block exactly once. Failed tests persist nothing
		// — an edgeless pair can never be enumerated again.
		ent, blk := p.pairEntryFor(s, c.slot, now)
		if !ent.feasible || ent.expiry < now {
			if blk != nil {
				p.legs.Release(blk)
			}
			continue
		}
		// Candidates come in ascending ID, so n's adjacency grows sorted;
		// the neighbor's gains the new order at its place.
		n.adj = append(n.adj, edge{id: c.id, slot: c.slot, expiry: ent.expiry, legs: blk})
		cn := &p.nodes[c.slot]
		i, _ := searchEdge(cn.adj, o.ID)
		cn.adj = slices.Insert(cn.adj, i, edge{id: o.ID, slot: s, expiry: ent.expiry, legs: blk})
		added++
	}
	// Incremental best-group maintenance (the paper's Appendix A shape):
	// an arrival only adds grouping options, so the new order gets a full
	// enumeration and every group visited improvement-updates the other
	// members' bests — neighbors never need a full recompute here.
	p.refreshBest(s, now)
	return added
}

// takeSlot returns a free slot, growing the slot array only when none is
// free.
func (p *Pool) takeSlot() int32 {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	p.nodes = append(p.nodes, node{})
	return int32(len(p.nodes) - 1)
}

// Remove deletes an order (dispatched or rejected) and refreshes the best
// groups of every neighbor whose best group referenced it.
func (p *Pool) Remove(id int, now float64) {
	s, ok := p.slotOf(id)
	if !ok {
		return
	}
	n := &p.nodes[s]
	for _, e := range n.adj {
		pn := &p.nodes[e.slot]
		i, _ := searchEdge(pn.adj, id)
		pn.adj = slices.Delete(pn.adj, i, i+1)
		if e.legs != nil {
			p.legs.Release(e.legs)
		}
	}
	p.dropNode(s)
	// The freed slot's adjacency still lists the former neighbors, in
	// ascending ID; nothing below takes a slot.
	for _, e := range n.adj {
		pn := &p.nodes[e.slot]
		if pn.best != nil && groupContains(pn.best, id) {
			p.refreshBest(e.slot, now)
		}
	}
	clear(n.adj)
	n.adj = n.adj[:0]
}

// RemoveGroup removes every member of the group, then refreshes affected
// neighbors once.
func (p *Pool) RemoveGroup(g *order.Group, now float64) {
	for _, o := range g.Orders {
		p.Remove(o.ID, now)
	}
}

// dropNode takes the order in slot s out of the cell index, the demand
// histograms, the live list and the plan cache, and frees the slot. Its
// adjacency is the caller's to clear.
func (p *Pool) dropNode(s int32) {
	n := &p.nodes[s]
	bucket := p.cells[n.cell]
	for i, r := range bucket {
		if r.slot == s {
			bucket[i] = bucket[len(bucket)-1]
			p.cells[n.cell] = bucket[:len(bucket)-1]
			break
		}
	}
	p.pickupDemand[n.cell]--
	p.dropoffDemand[p.ix.CellOf(n.o.Dropoff)]--
	p.demandGen++
	at, _ := p.search(n.o.ID)
	p.live = slices.Delete(p.live, at, at+1)
	p.evictOrder(n)
	n.o, n.best, n.bestExpiry = nil, nil, 0
	p.free = append(p.free, s)
}

// ExpireEdges drops edges and best groups that are no longer dispatchable
// at time now (graph update cases 3 and 4 of Algorithm 1), and returns the
// IDs of orders that can no longer be served alone (deadline unreachable),
// ascending — the caller rejects those.
func (p *Pool) ExpireEdges(now float64) (expiredOrders []int) {
	p.mark++
	touched := p.mark
	// Both entries of an edge carry its expiry, so each endpoint drops its
	// own entry; the lower-ID endpoint hands the shared block back.
	for _, r := range p.live {
		n := &p.nodes[r.slot]
		kept := n.adj[:0]
		for _, e := range n.adj {
			if e.expiry >= now {
				kept = append(kept, e)
				continue
			}
			n.touched = touched
			if e.legs != nil && r.id < e.id {
				p.legs.Release(e.legs)
			}
		}
		clear(n.adj[len(kept):])
		n.adj = kept
	}
	for _, r := range p.live {
		n := &p.nodes[r.slot]
		if n.best != nil && n.bestExpiry < now {
			n.touched = touched
		}
		if n.o.Expired(now) {
			expiredOrders = append(expiredOrders, r.id)
		}
	}
	for _, r := range p.live {
		if p.nodes[r.slot].touched == touched {
			p.refreshBest(r.slot, now)
		}
	}
	return expiredOrders
}

// BestGroup returns the order's current best *shared* group (size >= 2)
// and its expiry τg. ok is false when the order has no feasible shared
// group right now — per Algorithm 1 such orders stay pooled and wait (solo
// dispatch is the framework's timeout path, not a pool concern).
func (p *Pool) BestGroup(id int) (*order.Group, float64, bool) {
	s, ok := p.slotOf(id)
	if !ok || p.nodes[s].best == nil {
		return nil, 0, false
	}
	return p.nodes[s].best, p.nodes[s].bestExpiry, true
}

// candidates returns the pooled orders within the spatial prefilter
// radius of n's pickup cell, ascending by ID. The returned slice is pool
// scratch, valid until the next candidates call.
func (p *Pool) candidates(n *node) []ref {
	return p.candidatesAt(n.cell, n.o.ID)
}

// candidatesAt is candidates keyed by cell, usable before the order has a
// slot (the insert prewarm runs it pre-Insert).
//
//det:hotpath spatial prefilter runs per insert and per refresh; candidates fill the pooled buffer
func (p *Pool) candidatesAt(cell, selfID int) []ref {
	out := p.candBuf[:0]
	if p.opt.CandidateRadius < 0 {
		for _, r := range p.live {
			if r.id != selfID {
				out = append(out, r)
			}
		}
	} else {
		for d := 0; d <= p.opt.CandidateRadius; d++ {
			//det:hotalloc non-escaping ring visitor, stack-allocated because Ring only invokes it inline
			p.ix.Ring(cell, d, func(c int) bool {
				for _, r := range p.cells[c] {
					if r.id != selfID {
						out = append(out, r)
					}
				}
				return true
			})
		}
		slices.SortFunc(out, byID)
	}
	p.candBuf = out
	return out
}

// canonical copies the given member slots into the pool's canonical-view
// scratch, sorted by order ID, and returns the members' orders and slots in
// that order. Every plan the pool requests — pairwise tests, clique
// candidates, materialized winners — goes through this view, so one member
// set always maps to one member indexing: the DP's (deterministic)
// tie-breaks, the cache key and the extra-time accumulation order all
// agree, whichever node's refresh reached the set first. Valid until the
// next canonical call.
//
//det:hotpath canonicalization guards every plan request; the insertion sort reuses pooled scratch
func (p *Pool) canonical(slots ...int32) ([]*order.Order, []int32) {
	k := copy(p.canonSlot[:], slots)
	ss, os := p.canonSlot[:k], p.canonOrd[:k]
	// Insertion sort: k <= MaxGroupSize, no allocation.
	for i := range ss {
		os[i] = p.nodes[ss[i]].o
		for j := i; j > 0 && os[j].ID < os[j-1].ID; j-- {
			os[j], os[j-1] = os[j-1], os[j]
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
	return os, ss
}

// pairBlocks returns the leg blocks of a canonical member set's pairs, in
// the order the planner reads them, from the members' adjacency entries —
// every pair of a clique the pool plans has a live edge. Nil when the plan
// cache is off. The slice is pool scratch.
func (p *Pool) pairBlocks(slots []int32) []*route.LegBlock {
	if p.legs == nil {
		return nil
	}
	out := p.blockBuf[:0]
	for i, si := range slots {
		adj := p.nodes[si].adj
		for _, sj := range slots[i+1:] {
			at, _ := searchEdge(adj, p.nodes[sj].o.ID)
			out = append(out, adj[at].legs)
		}
	}
	return out
}

// refreshBest recomputes the best shared group of the order in slot s:
// the minimum average extra time over cliques (size >= 2) of its
// neighborhood up to MaxGroupSize, each validated by the exact route
// planner. Singletons are deliberately excluded: a fresh order's lone
// "group" has near-zero extra time by construction and would always win,
// collapsing every strategy into immediate solo dispatch.
//
// Candidates are compared cost-only (through the plan cache); group
// materialization is deferred until the enumeration settles, so only
// cliques that actually win — for the refreshed order or for a member
// picked up by the improvement rule below — ever build a RoutePlan.
func (p *Pool) refreshBest(s int32, now float64) {
	n := &p.nodes[s]
	bestAvg := math.Inf(1)
	var bestEnt *planEntry
	p.mark++
	mark := p.mark
	p.improved = p.improved[:0]
	// negative[k] is the verdict of the k-clique considered last. The
	// enumeration considers every clique right before it expands it, depth
	// first, so a k-clique's prefix verdict is negative[k-1].
	var negative [route.MaxGroupSize + 1]bool

	consider := func(members []int32) {
		k := len(members)
		canon, slots := p.canonical(members...)
		ent := p.planEntryFor(canon, slots, now, negative[k-1])
		negative[k] = !ent.feasible
		if !ent.feasible || ent.expiry < now {
			return
		}
		avg := ent.avgExtra(now)
		if avg < bestAvg-1e-9 {
			bestAvg = avg
			bestEnt = ent
		}
		// Improvement-only update for the other members: their stored
		// best was exact before this enumeration and new groups can only
		// lower the minimum, so comparing against the stored value keeps
		// them exact without re-enumerating their own neighborhoods.
		for _, ms := range slots {
			if ms == s {
				continue
			}
			mn := &p.nodes[ms]
			if mn.improveMark != mark {
				mn.improveMark = mark
				mn.improve = improved{avg: math.Inf(1)}
				if mn.best != nil {
					mn.improve.avg = mn.best.AvgExtraTime(now)
				}
				p.improved = append(p.improved, ms)
			}
			if avg < mn.improve.avg-1e-9 {
				mn.improve = improved{avg: avg, ent: ent}
			}
		}
	}

	p.enumerateCliques(s, now, consider)

	n.best, n.bestExpiry = nil, math.Inf(-1)
	if bestEnt != nil {
		if g := p.groupFor(bestEnt, now); g != nil {
			n.best, n.bestExpiry = g, bestEnt.expiry
		}
	}
	// Deferred member updates: each improved member materializes (or
	// shares) its winning clique's group exactly once. Each member's best is
	// written from its own entry, and group materialization is a pure
	// function of the entry, so the visiting order is immaterial; it is
	// first-seen order.
	for _, ms := range p.improved {
		mn := &p.nodes[ms]
		ent := mn.improve.ent
		mn.improve.ent = nil
		if ent == nil {
			continue
		}
		if g := p.groupFor(ent, now); g != nil {
			mn.best, mn.bestExpiry = g, ent.expiry
		}
	}
}

func groupContains(g *order.Group, id int) bool {
	for _, o := range g.Orders {
		if o.ID == id {
			return true
		}
	}
	return false
}
