// Package route plans feasible routes for order groups: the exact
// minimal-cost route for a group (dynamic programming over pickup/dropoff
// subsets, used by the shareability graph) and schedule evaluation used by
// the greedy-insertion baseline.
//
// A route is feasible (paper Def. 7) when it visits each order's pickup
// before its dropoff (sequential constraint), drops every order off before
// its deadline (deadline constraint) and never carries more riders than the
// vehicle capacity (capacity constraint).
//
// Every entry point shares one DP kernel, planDP: a search over (visited
// events, last event) states restricted to the 3^k event sets in which no
// order is dropped before it is picked up, walked level by level over
// precomputed mask tables (dptable.go) and abandoned at the first level no
// route prefix reaches. PlanGroup/PlanGroupFrom/PlanGroupShared materialize
// a RoutePlan; PlanGroupCost is the shareability graph's hot path — it runs
// the identical DP but returns only the route cost, the group expiry τg and
// the per-member service times, allocating nothing. Both kinds
// accept an optional LegStore so the leg matrix can be assembled from cached
// per-pair cost blocks instead of fresh network queries; every assembled
// entry the DP reads is the same pure cost(l1, l2) value a fresh query would
// return, so the two paths are bit-identical by construction.
package route

import (
	"math"
	"math/bits"
	"sync"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// MaxGroupSize bounds the DP: groups above this size are rejected outright.
// The paper's vehicle capacities go up to 5 riders, so 6 leaves headroom
// while keeping the DP table (3^k masks x 2k last events: 8748 states at
// k = 6, 648 at the pool's default k = 4) tiny.
const MaxGroupSize = 6

// Planner plans routes over a road network.
type Planner struct {
	Net roadnet.Network
}

// NewPlanner returns a planner over net.
func NewPlanner(net roadnet.Network) *Planner {
	return &Planner{Net: net}
}

// PlanGroup finds the minimal-travel-cost feasible route for the given
// orders when dispatched at time now into a vehicle with the given rider
// capacity. The route starts at its first pickup (the paper measures
// T(L(i)) from l1). Returns (nil, false) when no feasible route exists.
//
// The search is exact: dynamic programming over (visited-event-set, last
// event) states, O(3^k * k^2) for k orders, trivial for k <= MaxGroupSize.
func (p *Planner) PlanGroup(orders []*order.Order, now float64, capacity int) (*order.RoutePlan, bool) {
	return p.planGroupFrom(orders, now, capacity, geo.InvalidNode, nil)
}

// PlanGroupFrom is PlanGroup with an explicit start location: arrivals then
// include the travel from start to the first pickup. Pass geo.InvalidNode
// for a free start (route begins at whichever first pickup is cheapest).
func (p *Planner) PlanGroupFrom(orders []*order.Order, now float64, capacity int, start geo.NodeID) (*order.RoutePlan, bool) {
	return p.planGroupFrom(orders, now, capacity, start, nil)
}

// PlanGroupShared is PlanGroup with the leg matrix assembled from the
// store's cached per-pair blocks (falling back to fresh network queries
// when legs is nil or the group is a singleton). The result is bit-identical
// to PlanGroup: cached blocks hold the same pure cost values.
func (p *Planner) PlanGroupShared(orders []*order.Order, now float64, capacity int, legs *LegStore) (*order.RoutePlan, bool) {
	return p.planGroupFrom(orders, now, capacity, geo.InvalidNode, legs)
}

func (p *Planner) planGroupFrom(orders []*order.Order, now float64, capacity int, start geo.NodeID, store *LegStore) (*order.RoutePlan, bool) {
	sc := scratchPool.Get().(*planScratch)
	defer scratchPool.Put(sc)
	best := p.planDP(orders, now, capacity, start, store, sc)
	if best < 0 {
		return nil, false
	}
	return materializePlan(orders, best, sc), true
}

// PlanGroupCost is the cost-only fast path of PlanGroup: it runs the exact
// same DP over the exact same leg costs but materializes nothing — no
// RoutePlan, no stops, no arrival slice. It returns the minimal route cost
// T(L), the group expiry τg (Eq. 3: min_i τ(i) - T(L(i))) and, through svc
// (caller-provided, len >= len(orders)), each member's service time T(L(i))
// in member order. ok is false when no feasible route exists — and, because
// raising now only shrinks the feasible route set, stays false for every
// later now (the monotone-infeasibility property the pool's negative cache
// relies on).
//
//det:hotpath the shareability graph's per-pair test runs millions of times per simulated day and must not allocate in steady state
func (p *Planner) PlanGroupCost(orders []*order.Order, now float64, capacity int, legs *LegStore, svc []float64) (cost, expiry float64, ok bool) {
	sc := scratchPool.Get().(*planScratch)
	defer scratchPool.Put(sc)
	best := p.planDP(orders, now, capacity, geo.InvalidNode, legs, sc)
	if best < 0 {
		return 0, 0, false
	}
	ne := 2 * len(orders)
	cost = sc.dp[best]
	// Walk the parent chain (one state per event) recording each dropoff's
	// arrival offset; the values are the same dp entries a materialized plan
	// would expose via ServiceTime, so expiry is bit-identical to
	// groupExpiry over a plan.
	for n, idx := ne, best; n > 0; n, idx = n-1, int(sc.parent[idx]) {
		if ev := idx % ne; ev%2 == 1 {
			svc[ev/2] = sc.dp[idx]
		}
	}
	expiry = math.Inf(1)
	for i, o := range orders {
		if e := o.Deadline - svc[i]; e < expiry {
			expiry = e
		}
	}
	return cost, expiry, true
}

// planDP runs the feasibility DP and returns the index of the cheapest
// complete final state into sc's dp/parent tables, or -1 when the group is
// infeasible. The leg matrix comes from the store's cached pair blocks when
// store is non-nil and the group has pairs to share, from batched network
// queries otherwise; either way every entry the DP reads is
// cost(loc[a], loc[b]) (a block leaves the cells it cannot read — the
// diagonal, dropoff_i -> pickup_i — at a sentinel).
//
// dp[rank(mask)*ne+last] is the earliest arrival offset at event last having
// visited exactly mask, over the 3^k valid masks only (dptable.go). Each
// state is pulled from its one predecessor mask, mask without last, by
// scanning that mask's reachable final events in ascending order; masks are
// visited level by level (popcount), so a predecessor's values are final
// before anything reads them, and a level with no reachable state proves
// every deeper one unreachable. DESIGN.md §5 has the argument that this
// reproduces the push-form 2^(2k) table sweep bit for bit.
func (p *Planner) planDP(orders []*order.Order, now float64, capacity int, start geo.NodeID, store *LegStore, sc *planScratch) int {
	k := len(orders)
	if k == 0 || k > MaxGroupSize {
		return -1
	}
	// A group whose combined riders exceed capacity can still be feasible
	// when riders never overlap; overlap is checked per transition below.
	// Only an individual order that exceeds capacity is hopeless.
	for _, o := range orders {
		if o.Riders > capacity {
			return -1
		}
	}

	ne := 2 * k // events: 2i = pickup of orders[i], 2i+1 = dropoff
	// legs[a*ne+b] caches cost(loc[a], loc[b]); the DP touches each pair
	// many times. One batched many-to-many call fills the whole table: a
	// Graph-backed network answers it with one pruned search per distinct
	// event node instead of ne full-city Dijkstras. A LegStore skips even
	// that, copying the entries out of per-pair blocks filled — with the ten
	// legs a pair's DP reads, no more — when the pair's shareability edge
	// was first tested.
	legs := sc.legs[:ne*ne]
	if store != nil && k >= 2 {
		assembleLegs(store, orders, ne, legs)
	} else {
		loc := sc.loc[:ne]
		for i, o := range orders {
			loc[2*i] = o.Pickup
			loc[2*i+1] = o.Dropoff
		}
		roadnet.FillCostMatrix(p.Net, loc, loc, legs)
	}
	// Approach legs from the explicit start to each pickup, batched the
	// same way (one search for all k pickups); zero for a free start.
	t0s := sc.approach[:k]
	if start != geo.InvalidNode {
		pickups := sc.loc[:k]
		for i, o := range orders {
			pickups[i] = o.Pickup
		}
		sc.startSrc[0] = start
		roadnet.FillCostMatrix(p.Net, sc.startSrc[:], pickups, t0s)
	} else {
		clear(t0s)
	}

	tab := &dpTables[k]
	dp, parent, reach, onboard := sc.tables(k)
	// Per-event deadline and rider delta. A pickup has no deadline: +Inf
	// makes its check below vacuous without a branch on the event kind.
	var deadline [2 * MaxGroupSize]float64
	var riders [2 * MaxGroupSize]int
	for i, o := range orders {
		deadline[2*i], deadline[2*i+1] = math.Inf(1), o.Deadline
		riders[2*i], riders[2*i+1] = o.Riders, -o.Riders
	}

	// Level 1: each pickup as the first stop. Its mask 1<<2i has rank 1+i,
	// and its state is its own parent (chain walks count events, they do not
	// look for a root). A +Inf approach leg leaves the state unreachable.
	onboard[0] = 0
	var live uint16
	for i := 0; i < k; i++ {
		r := 1 + i
		dp[r*ne+2*i] = t0s[i]
		parent[r*ne+2*i] = uint16(r*ne + 2*i)
		onboard[r] = riders[2*i]
		reach[r] = 0
		if !math.IsInf(t0s[i], 1) {
			reach[r] = 1 << (2 * i)
		}
		live |= reach[r]
	}
	if live == 0 {
		return -1
	}

	r := 1 + k
	for level := 2; level <= ne; level++ {
		live = 0
		for end := int(tab.levelEnd[level]); r < end; r++ {
			mask, rem := tab.masks[r], tab.removable[r]
			// Riders on board in mask, carried from any predecessor mask.
			first := bits.TrailingZeros16(rem)
			ob := onboard[tab.rank[mask&^(1<<first)]] + riders[first]
			onboard[r] = ob
			var reached uint16
			for ; rem != 0; rem &= rem - 1 {
				next := bits.TrailingZeros16(rem)
				pr := int(tab.rank[mask&^(1<<next)])
				lasts := reach[pr]
				if lasts == 0 {
					continue
				}
				if next&1 == 0 && ob > capacity {
					continue // capacity exceeded at this pickup
				}
				due := deadline[next]
				best, from := math.Inf(1), -1
				for ; lasts != 0; lasts &= lasts - 1 {
					last := bits.TrailingZeros16(lasts)
					t := dp[pr*ne+last] + legs[last*ne+next]
					if now+t > due {
						continue // deadline violated at this dropoff
					}
					if t < best-1e-12 {
						best, from = t, pr*ne+last
					}
				}
				if from >= 0 {
					dp[r*ne+next] = best
					parent[r*ne+next] = uint16(from)
					reached |= 1 << next
				}
			}
			reach[r] = reached
			live |= reached
		}
		if live == 0 {
			return -1
		}
	}

	// Pick the cheapest complete route; ties break toward the smaller
	// final event index for determinism.
	full := len(tab.masks) - 1
	best := -1
	bestT := math.Inf(1)
	for lasts := reach[full]; lasts != 0; lasts &= lasts - 1 {
		idx := full*ne + bits.TrailingZeros16(lasts)
		if t := dp[idx]; t < bestT-1e-12 {
			bestT = t
			best = idx
		}
	}
	return best
}

// materializePlan reconstructs the RoutePlan ending at state best from sc's
// dp/parent tables (fresh slices: they escape into the returned plan). The
// parent chain of a complete state has exactly one state per event.
func materializePlan(orders []*order.Order, best int, sc *planScratch) *order.RoutePlan {
	ne := 2 * len(orders)
	plan := &order.RoutePlan{
		Stops:  make([]order.Stop, ne),
		Arrive: make([]float64, ne),
		Cost:   sc.dp[best],
	}
	for i, idx := ne-1, best; i >= 0; i, idx = i-1, int(sc.parent[idx]) {
		ev := idx % ne
		o := orders[ev/2]
		kind := order.PickupStop
		node := o.Pickup
		if ev%2 == 1 {
			kind = order.DropoffStop
			node = o.Dropoff
		}
		plan.Stops[i] = order.Stop{Node: node, Kind: kind, OrderID: o.ID, Riders: o.Riders}
		plan.Arrive[i] = sc.dp[idx]
	}
	return plan
}

// planScratch holds reusable DP buffers; pooled because the shareability
// graph calls the planner millions of times per simulated day. The leg
// matrix and event locations are bounded by MaxGroupSize and live inline;
// only the state tables, whose size is 3^k, grow to the largest k seen.
type planScratch struct {
	legs     [4 * MaxGroupSize * MaxGroupSize]float64
	loc      [2 * MaxGroupSize]geo.NodeID
	startSrc [1]geo.NodeID
	approach [MaxGroupSize]float64 // start -> each pickup

	dp      []float64 // rank(mask)*ne + last -> arrival offset
	parent  []uint16  // same index -> predecessor state
	reach   []uint16  // rank(mask) -> set of reachable last events
	onboard []int     // rank(mask) -> riders picked up and not yet dropped
}

var scratchPool = sync.Pool{New: func() any { return &planScratch{} }}

// tables returns the state tables sized for groups of k. Nothing is cleared:
// the kernel writes reach and onboard for every mask it visits and reads dp
// and parent only where reach says they were written.
//
//det:hotalloc grows the pooled scratch once per high-water mark; steady state reuses capacity
func (s *planScratch) tables(k int) (dp []float64, parent, reach []uint16, onboard []int) {
	masks := len(dpTables[k].masks)
	if states := masks * 2 * k; cap(s.dp) < states {
		s.dp = make([]float64, states)
		s.parent = make([]uint16, states)
		s.reach = make([]uint16, masks)
		s.onboard = make([]int, masks)
	}
	return s.dp, s.parent, s.reach, s.onboard
}
