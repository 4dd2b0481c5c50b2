// Package pool implements the temporal shareability graph (paper Section
// IV): the order pool at the heart of WATTER. Orders are nodes; an edge
// (o_i, o_j, τe) records that the two orders can share a feasible route
// until timestamp τe. Shareable groups are k-cliques (Theorem IV.1 makes
// the clique a necessary condition; the route planner provides the
// sufficient check), and every pooled order keeps a pointer to its current
// best group — the clique whose minimal-cost route gives the smallest
// average extra time.
//
// Best-group maintenance is the system's hot path, so the pool memoizes
// aggressively (see plancache.go): every considered clique is first
// resolved through a plan cache keyed by its sorted member signature, the
// cost-only route DP assembles leg matrices from per-pair blocks cached at
// edge-creation time, and only cliques that actually win a best-group race
// materialize a RoutePlan. All of it is behaviorally invisible —
// Options.DisablePlanCache turns every memo off and the pool makes
// bit-identical decisions either way.
package pool

import (
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
	// MaxCliquesPerUpdate caps the number of candidate cliques explored
	// per best-group recomputation; 0 means unlimited.
	MaxCliquesPerUpdate int
	// DisablePlanCache turns off the clique plan cache and the per-edge
	// leg-block store, forcing every best-group refresh to replan from
	// scratch. Decisions are bit-identical either way (the caches memoize
	// pure functions of the member set); the switch exists for the
	// equivalence tests and the -benchpool uncached baseline arm.
	DisablePlanCache bool
}

// DefaultOptions matches the paper's defaults (capacity 4, 10x10 grid
// prefilter of radius 2).
func DefaultOptions() Options {
	return Options{Capacity: 4, MaxGroupSize: 4, CandidateRadius: 2, MaxCliquesPerUpdate: 64}
}

// edge is a shareability relation with its expiration timestamp.
type edge struct {
	peer   int     // neighbor order ID
	expiry float64 // τe: latest dispatch time keeping the pair feasible
}

// node is a pooled order plus adjacency.
type node struct {
	o     *order.Order
	edges map[int]edge
	cell  int // pickup cell in the spatial index
	best  *order.Group
	// bestExpiry is τg of the best group (Eq. 3): the latest dispatch time
	// at which the group's plan still meets every member deadline.
	bestExpiry float64
}

// Pool is the temporal shareability graph.
type Pool struct {
	planner *route.Planner
	ix      *gridindex.Index
	opt     Options

	nodes map[int]*node
	cells [][]int // cell -> order IDs with pickup in the cell

	// Memoization (nil when Options.DisablePlanCache): the clique plan
	// cache and the per-pair leg-block store. Lifetime is the pool's —
	// one simulation run.
	cache *planCache
	legs  *route.LegStore
	// bounds is the network's lower-bound capability, nil when it has none
	// (closed-form cities) or when memoization is off — the uncached pool is
	// also the reference the pair certificate is tested against.
	bounds roadnet.BoundedNetwork

	// Reusable scratch for the maintenance hot path. The pool is
	// single-goroutine (each simulation run owns its pool), so plain
	// fields suffice.
	candBuf   []int            // candidates()
	cliqueBuf []int            // enumerateCliques candidate stack
	memberBuf []*order.Order   // enumerateCliques member stack
	canonBuf  []*order.Order   // canonical (sorted-by-ID) member view
	improve   map[int]improved // refreshBest deferred member updates
	pairProbe *planEntry       // reusable scratch for failed pair tests
	// prewarmNeg holds the keys of negative pair entries the last
	// PrewarmPairs merged; the insert that consumes them calls
	// FlushPrewarmedNegatives so they don't outlive their one lookup
	// (mirroring pairEntryFor's no-persist policy for failed pair tests).
	prewarmNeg []planKey

	// Demand distributions over cells, maintained incrementally; these are
	// the MDP state's sO vectors. demandGen counts their edits. It is a
	// plain field: only Insert and dropNode write it, both on the job's
	// committing goroutine — prewarm tasks must not touch it.
	pickupDemand  gridindex.Distribution
	dropoffDemand gridindex.Distribution
	demandGen     uint64
}

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
		nodes:         make(map[int]*node),
		cells:         make([][]int, ix.NumCells()),
		improve:       make(map[int]improved),
		pickupDemand:  ix.NewDistribution(),
		dropoffDemand: ix.NewDistribution(),
	}
	if !opt.DisablePlanCache {
		p.cache = newPlanCache()
		p.legs = route.NewLegStore(planner.Net)
		p.bounds, _ = planner.Net.(roadnet.BoundedNetwork)
	}
	return p
}

// Len returns the number of pooled orders.
func (p *Pool) Len() int { return len(p.nodes) }

// Contains reports whether the order is pooled.
func (p *Pool) Contains(id int) bool { _, ok := p.nodes[id]; return ok }

// Order returns a pooled order by ID (nil if absent).
func (p *Pool) Order(id int) *order.Order {
	if n, ok := p.nodes[id]; ok {
		return n.o
	}
	return nil
}

// OrderIDs returns the pooled order IDs in ascending order (deterministic
// iteration for the periodic check).
func (p *Pool) OrderIDs() []int {
	ids := make([]int, 0, len(p.nodes))
	for id := range p.nodes {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Degree returns the number of shareability edges incident to the order.
func (p *Pool) Degree(id int) int {
	if n, ok := p.nodes[id]; ok {
		return len(n.edges)
	}
	return 0
}

// EdgeExpiry returns the τe of the edge between two orders, if present.
func (p *Pool) EdgeExpiry(a, b int) (float64, bool) {
	if n, ok := p.nodes[a]; ok {
		if e, ok := n.edges[b]; ok {
			return e.expiry, true
		}
	}
	return 0, false
}

// DemandDistributions returns normalized copies of the current pickup and
// dropoff demand histograms (MDP feature sO).
func (p *Pool) DemandDistributions() (pickup, dropoff gridindex.Distribution) {
	pu := make(gridindex.Distribution, len(p.pickupDemand))
	do := make(gridindex.Distribution, len(p.dropoffDemand))
	copy(pu, p.pickupDemand)
	copy(do, p.dropoffDemand)
	pu.Normalize()
	do.Normalize()
	return pu, do
}

// DemandGeneration returns a counter that moves whenever the demand
// histograms do: while it stands still, DemandDistributions returns the
// same values.
func (p *Pool) DemandGeneration() uint64 { return p.demandGen }

// Insert adds an order at time now: the node is created, shareability
// edges to candidate neighbors are discovered, and best groups of the new
// order and its neighbors are refreshed. Returns the number of edges added.
func (p *Pool) Insert(o *order.Order, now float64) int {
	if _, dup := p.nodes[o.ID]; dup {
		return 0
	}
	n := &node{
		o:     o,
		edges: make(map[int]edge),
		cell:  p.ix.CellOf(o.Pickup),
	}
	p.nodes[o.ID] = n
	p.cells[n.cell] = append(p.cells[n.cell], o.ID)
	p.pickupDemand[p.ix.CellOf(o.Pickup)]++
	p.dropoffDemand[p.ix.CellOf(o.Dropoff)]++
	p.demandGen++

	added := 0
	for _, candID := range p.candidates(n) {
		cand := p.nodes[candID]
		// The pairwise test doubles as the 2-clique's cache fill (and, via
		// the leg store, computes the pair's leg block exactly once).
		// Failed tests persist nothing — an edgeless pair can never be
		// enumerated again.
		ent := p.pairEntryFor(o, cand.o, now)
		if !ent.feasible || ent.expiry < now {
			continue
		}
		n.edges[candID] = edge{peer: candID, expiry: ent.expiry}
		cand.edges[o.ID] = edge{peer: o.ID, expiry: ent.expiry}
		added++
	}
	// Incremental best-group maintenance (the paper's Appendix A shape):
	// an arrival only adds grouping options, so the new order gets a full
	// enumeration and every group visited improvement-updates the other
	// members' bests — neighbors never need a full recompute here.
	p.refreshBest(o.ID, now)
	return added
}

// Remove deletes an order (dispatched or rejected) and refreshes the best
// groups of every neighbor whose best group referenced it.
func (p *Pool) Remove(id int, now float64) {
	n, ok := p.nodes[id]
	if !ok {
		return
	}
	neighbors := make([]int, 0, len(n.edges))
	for peer := range n.edges {
		neighbors = append(neighbors, peer)
		delete(p.nodes[peer].edges, id)
	}
	slices.Sort(neighbors)
	p.dropNode(id, n)
	for _, peer := range neighbors {
		pn := p.nodes[peer]
		if pn == nil {
			continue
		}
		if pn.best != nil && groupContains(pn.best, id) {
			p.refreshBest(peer, now)
		}
	}
}

// RemoveGroup removes every member of the group, then refreshes affected
// neighbors once.
func (p *Pool) RemoveGroup(g *order.Group, now float64) {
	for _, o := range g.Orders {
		p.Remove(o.ID, now)
	}
}

func (p *Pool) dropNode(id int, n *node) {
	bucket := p.cells[n.cell]
	for i, v := range bucket {
		if v == id {
			bucket[i] = bucket[len(bucket)-1]
			p.cells[n.cell] = bucket[:len(bucket)-1]
			break
		}
	}
	p.pickupDemand[p.ix.CellOf(n.o.Pickup)]--
	p.dropoffDemand[p.ix.CellOf(n.o.Dropoff)]--
	p.demandGen++
	delete(p.nodes, id)
	p.evictOrder(id)
}

// ExpireEdges drops edges and best groups that are no longer dispatchable
// at time now (graph update cases 3 and 4 of Algorithm 1), and returns the
// IDs of orders that can no longer be served alone (deadline unreachable) —
// the caller rejects those.
func (p *Pool) ExpireEdges(now float64) (expiredOrders []int) {
	type pair struct{ a, b int }
	var dead []pair
	for id, n := range p.nodes {
		for peer, e := range n.edges {
			if peer > id && e.expiry < now {
				dead = append(dead, pair{id, peer})
			}
		}
	}
	slices.SortFunc(dead, func(x, y pair) int {
		if x.a != y.a {
			return x.a - y.a
		}
		return x.b - y.b
	})
	touched := map[int]bool{}
	for _, d := range dead {
		delete(p.nodes[d.a].edges, d.b)
		delete(p.nodes[d.b].edges, d.a)
		touched[d.a] = true
		touched[d.b] = true
	}
	//det:unordered touched writes are keyed by the loop key with a constant value, Expired reads only the order's own deadline, and expiredOrders is sorted before use below
	for id, n := range p.nodes {
		if n.best != nil && n.bestExpiry < now {
			touched[id] = true
		}
		if n.o.Expired(now) {
			expiredOrders = append(expiredOrders, id)
		}
	}
	ids := make([]int, 0, len(touched))
	for id := range touched {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		p.refreshBest(id, now)
	}
	slices.Sort(expiredOrders)
	return expiredOrders
}

// BestGroup returns the order's current best *shared* group (size >= 2)
// and its expiry τg. ok is false when the order has no feasible shared
// group right now — per Algorithm 1 such orders stay pooled and wait (solo
// dispatch is the framework's timeout path, not a pool concern).
func (p *Pool) BestGroup(id int) (*order.Group, float64, bool) {
	n, ok := p.nodes[id]
	if !ok || n.best == nil {
		return nil, 0, false
	}
	return n.best, n.bestExpiry, true
}

// candidates returns the IDs of pooled orders within the spatial prefilter
// radius of n's pickup cell, ascending. The returned slice is pool scratch,
// valid until the next candidates call.
func (p *Pool) candidates(n *node) []int {
	return p.candidatesAt(n.cell, n.o.ID)
}

// candidatesAt is candidates keyed by cell, usable before the order has a
// node (the insert prewarm runs it pre-Insert).
//
//det:hotpath spatial prefilter runs per insert and per refresh; candidates fill the pooled buffer
func (p *Pool) candidatesAt(cell, selfID int) []int {
	out := p.candBuf[:0]
	if p.opt.CandidateRadius < 0 {
		for id := range p.nodes {
			if id != selfID {
				out = append(out, id)
			}
		}
	} else {
		for d := 0; d <= p.opt.CandidateRadius; d++ {
			//det:hotalloc non-escaping ring visitor, stack-allocated because Ring only invokes it inline
			p.ix.Ring(cell, d, func(c int) bool {
				for _, id := range p.cells[c] {
					if id != selfID {
						out = append(out, id)
					}
				}
				return true
			})
		}
	}
	slices.Sort(out)
	p.candBuf = out
	return out
}

// canonical copies the given members into the pool's canonical-view scratch
// and sorts them by ID. Every plan the pool requests — pairwise tests,
// clique candidates, materialized winners — goes through this view, so one
// member set always maps to one member indexing: the DP's (deterministic)
// tie-breaks, the cache key and the extra-time accumulation order all
// agree, whichever node's refresh reached the set first. Valid until the
// next canonical call.
//
//det:hotpath canonicalization guards every plan request; the insertion sort reuses pooled scratch
func (p *Pool) canonical(members ...*order.Order) []*order.Order {
	buf := p.canonBuf[:0]
	buf = append(buf, members...)
	// Insertion sort: k <= MaxGroupSize, no allocation.
	for i := 1; i < len(buf); i++ {
		for j := i; j > 0 && buf[j].ID < buf[j-1].ID; j-- {
			buf[j], buf[j-1] = buf[j-1], buf[j]
		}
	}
	p.canonBuf = buf
	return buf
}

// refreshBest recomputes the order's best shared group: the minimum
// average extra time over cliques (size >= 2) of its neighborhood up to
// MaxGroupSize, each validated by the exact route planner. Singletons are
// deliberately excluded: a fresh order's lone "group" has near-zero extra
// time by construction and would always win, collapsing every strategy
// into immediate solo dispatch.
//
// Candidates are compared cost-only (through the plan cache); group
// materialization is deferred until the enumeration settles, so only
// cliques that actually win — for the refreshed order or for a member
// picked up by the improvement rule below — ever build a RoutePlan.
func (p *Pool) refreshBest(id int, now float64) {
	n, ok := p.nodes[id]
	if !ok {
		return
	}
	bestAvg := math.Inf(1)
	var bestEnt *planEntry
	clear(p.improve)

	consider := func(members []*order.Order) {
		ent := p.planEntryFor(p.canonical(members...), now)
		if !ent.feasible || ent.expiry < now {
			return
		}
		avg := ent.avgExtra(now, p.planner.Alpha, p.planner.Beta)
		if avg < bestAvg-1e-9 {
			bestAvg = avg
			bestEnt = ent
		}
		// Improvement-only update for the other members: their stored
		// best was exact before this enumeration and new groups can only
		// lower the minimum, so comparing against the stored value keeps
		// them exact without re-enumerating their own neighborhoods.
		for _, m := range ent.orders() {
			if m.ID == n.o.ID {
				continue
			}
			st, seen := p.improve[m.ID]
			if !seen {
				st.avg = math.Inf(1)
				if mn := p.nodes[m.ID]; mn != nil && mn.best != nil {
					st.avg = mn.best.AvgExtraTime(now, p.planner.Alpha, p.planner.Beta)
				}
			}
			if avg < st.avg-1e-9 {
				st.avg = avg
				st.ent = ent
				p.improve[m.ID] = st
			} else if !seen {
				p.improve[m.ID] = st
			}
		}
	}

	p.enumerateCliques(n, now, consider)

	n.best, n.bestExpiry = nil, math.Inf(-1)
	if bestEnt != nil {
		if g := p.groupFor(bestEnt, now); g != nil {
			n.best, n.bestExpiry = g, bestEnt.expiry
		}
	}
	// Deferred member updates: each improved member materializes (or
	// shares) its winning clique's group exactly once. Map iteration order
	// is irrelevant — entries are per-member and group materialization is
	// a pure function of the entry.
	//det:unordered each member's best/bestExpiry is written once from its own entry, and groupFor is a pure function of (entry, now)
	for mid, st := range p.improve {
		if st.ent == nil {
			continue
		}
		mn := p.nodes[mid]
		if mn == nil {
			continue
		}
		if g := p.groupFor(st.ent, now); g != nil {
			mn.best, mn.bestExpiry = g, st.ent.expiry
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
