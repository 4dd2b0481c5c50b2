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
// order is dropped before it is picked up (precomputed mask tables,
// dptable.go), pushed forward from a worklist of the sets some route prefix
// reaches, and dropping every prefix that cannot make a deadline it still
// owes — judged by its arrival plus, on a network that states the triangle
// inequality (roadnet.MetricNetwork), the direct legs from its last stop to
// that dropoff. PlanGroup, PlanGroupFrom and PlanGroupInto materialize a
// RoutePlan through one kernel, planInto, which writes the route into a
// caller's plan (PlanGroupInto) or into one fresh order.NewRoutePlan;
// PlanGroupCostLegs (PlanGroupCost with a store) is the shareability graph's
// hot path — it runs the identical DP but returns only the route cost, the
// group expiry τg, the per-member service times and the member the route
// starts with, allocating nothing.
// PlanGroupInto and PlanGroupCostLegs assemble the leg matrix from the
// group's per-pair cost blocks (LegBlock) instead of fresh network queries;
// every assembled entry the DP reads is the same pure cost(l1, l2) value a
// fresh query would return, so the two paths are bit-identical by
// construction.
package route

import (
	"math"
	"math/bits"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// MaxGroupSize bounds the DP: groups above this size are rejected outright.
// The paper's vehicle capacities go up to 5 riders, so 6 leaves headroom
// while keeping the DP table (3^k masks x 2k last events: 8748 states at
// k = 6, 648 at the pool's default k = 4) tiny.
const MaxGroupSize = 6

// Planner plans routes over a road network. It owns the DP scratch every
// call reuses, so it is not safe for concurrent use: each sim.Env owns one,
// and one run's dispatch calls it from one goroutine.
type Planner struct {
	Net roadnet.Network
	sc  planScratch
}

// NewPlanner returns a planner over net.
func NewPlanner(net roadnet.Network) *Planner {
	return &Planner{Net: net}
}

// PlanGroup finds the minimal-travel-cost feasible route for the given
// orders when dispatched at time now into a vehicle with the given rider
// capacity. The route starts at its first pickup (the paper measures
// T(L(i)) from l1). Returns (nil, false) when no feasible route exists; a
// found plan is one allocation (order.NewRoutePlan).
//
// The search is exact: dynamic programming over (visited-event-set, last
// event) states, O(3^k * k^2) for k orders, trivial for k <= MaxGroupSize.
func (p *Planner) PlanGroup(orders []*order.Order, now float64, capacity int) (*order.RoutePlan, bool) {
	return p.planInto(nil, orders, now, capacity, geo.InvalidNode, nil)
}

// PlanGroupFrom is PlanGroup with an explicit start location: arrivals then
// include the travel from start to the first pickup. Pass geo.InvalidNode
// for a free start (route begins at whichever first pickup is cheapest).
func (p *Planner) PlanGroupFrom(orders []*order.Order, now float64, capacity int, start geo.NodeID) (*order.RoutePlan, bool) {
	return p.planInto(nil, orders, now, capacity, start, nil)
}

// PlanGroupInto is PlanGroup writing the route into the caller's plan,
// whose Stops and Arrive hold 2*len(orders) entries, with the leg matrix
// assembled from the group's pair blocks: blocks[p] is the block of the
// p-th member pair (i, j), i < j, in row-major order (fresh network queries
// when blocks is nil or the group is a singleton). The route is
// bit-identical to PlanGroup's: blocks hold the same pure cost values. It
// returns false, leaving plan as it was, when no feasible route exists.
func (p *Planner) PlanGroupInto(plan *order.RoutePlan, orders []*order.Order, now float64, capacity int, blocks []*LegBlock) bool {
	_, ok := p.planInto(plan, orders, now, capacity, geo.InvalidNode, blocks)
	return ok
}

// planInto is the one materializing kernel: it runs the DP and writes the
// cheapest route into plan, or, when plan is nil, into a plan it allocates
// once the route is known to exist. The parent chain of a complete state
// has exactly one state per event.
func (p *Planner) planInto(plan *order.RoutePlan, orders []*order.Order, now float64, capacity int, start geo.NodeID, blocks []*LegBlock) (*order.RoutePlan, bool) {
	sc := &p.sc
	best := p.planDP(orders, now, capacity, start, blocks, sc)
	if best < 0 {
		return nil, false
	}
	if plan == nil {
		plan = order.NewRoutePlan(len(orders))
	}
	ne := 2 * len(orders)
	plan.Cost = sc.dp[best]
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
	return plan, true
}

// PlanGroupCost is the cost-only fast path of PlanGroup: it runs the exact
// same DP over the exact same leg costs but materializes nothing — no
// RoutePlan, no stops, no arrival slice. It returns the minimal route cost
// T(L), the group expiry τg (Eq. 3: min_i τ(i) - T(L(i))) and, through svc
// (caller-provided, len >= len(orders)), each member's service time T(L(i))
// in member order. ok is false when no feasible route exists — and, because
// raising now only shrinks the feasible route set, stays false for every
// later now (the monotone-infeasibility property the pool's negative cache
// relies on). With a store, the leg matrix is assembled from pair blocks
// the store fills for this call alone.
func (p *Planner) PlanGroupCost(orders []*order.Order, now float64, capacity int, legs *LegStore, svc []float64) (cost, expiry float64, ok bool) {
	var blocks []*LegBlock
	if legs != nil && len(orders) >= 2 && len(orders) <= MaxGroupSize {
		blocks = legs.fillGroup(orders, now)
		defer legs.releaseGroup(blocks)
	}
	cost, expiry, _, ok = p.PlanGroupCostLegs(orders, now, capacity, blocks, svc)
	return cost, expiry, ok
}

// PlanGroupCostLegs is PlanGroupCost over the group's pair blocks, laid out
// as PlanGroupInto takes them (fresh network queries when blocks is nil). It
// also reports first, the index of the member whose pickup the route starts
// at: a materialized plan's Stops[0] is orders[first].Pickup.
func (p *Planner) PlanGroupCostLegs(orders []*order.Order, now float64, capacity int, blocks []*LegBlock, svc []float64) (cost, expiry float64, first int, ok bool) {
	sc := &p.sc
	best := p.planDP(orders, now, capacity, geo.InvalidNode, blocks, sc)
	if best < 0 {
		return 0, 0, 0, false
	}
	ne := 2 * len(orders)
	cost = sc.dp[best]
	// Walk the parent chain (one state per event) recording each dropoff's
	// arrival offset; the values are the same dp entries a materialized plan
	// would expose via ServiceTime, so expiry is bit-identical to
	// groupExpiry over a plan. The walk's last step is the first event,
	// always a pickup.
	for n, idx := ne, best; n > 0; n, idx = n-1, int(sc.parent[idx]) {
		if ev := idx % ne; ev%2 == 1 {
			svc[ev/2] = sc.dp[idx]
		} else if n == 1 {
			first = ev / 2
		}
	}
	expiry = math.Inf(1)
	for i, o := range orders {
		if e := o.Deadline - svc[i]; e < expiry {
			expiry = e
		}
	}
	return cost, expiry, first, true
}

// planDP runs the feasibility DP and returns the index of the cheapest
// complete final state into sc's dp/parent tables, or -1 when the group is
// infeasible. The leg matrix comes from the group's pair blocks when blocks
// is non-nil and the group has pairs to share, from batched network
// queries otherwise; either way every entry the DP reads is
// cost(loc[a], loc[b]) (a block leaves the cells it cannot read — the
// diagonal, dropoff_i -> pickup_i — at a sentinel).
//
// dp[rank(mask)*ne+last] is the earliest arrival offset at event last having
// visited exactly mask, over the 3^k valid masks only (dptable.go). The
// kernel walks a worklist of the masks some state reaches, in popcount
// order, and from each pushes to its successors: every state (mask, next)
// has exactly one predecessor mask, mask without next, so it is computed
// whole, once, by scanning that predecessor's reached final events in
// ascending order, and masks no prefix reaches cost nothing. A state is
// dropped as doomed when a member it still owes a delivery would miss its
// deadline, plus a margin, even on the direct legs from the state's last
// stop (on a MetricNetwork; on any other, even arriving now): no extension
// of it can make that dropoff. DESIGN.md §5 has the argument that this
// reproduces the 2^(2k) table sweep bit for bit, margin included.
func (p *Planner) planDP(orders []*order.Order, now float64, capacity int, start geo.NodeID, blocks []*LegBlock, sc *planScratch) int {
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
	// event node instead of ne full-city Dijkstras. Pair blocks skip even
	// that, copying the entries out of per-pair blocks filled — with the ten
	// legs a pair's DP reads, no more — when the pair's shareability edge
	// was first tested.
	legs := sc.legs[:ne*ne]
	if blocks != nil && k >= 2 {
		assembleLegs(blocks, orders, ne, legs)
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
	clear(reach)
	// Per-event deadline, doom limit and rider delta. A pickup has no
	// deadline: +Inf makes its check below vacuous without a branch on the
	// event kind. Both events of a member share its limit.
	var deadline, limit [2 * MaxGroupSize]float64
	var riders [2 * MaxGroupSize]int
	for i, o := range orders {
		l := doomLimit(o.Deadline)
		deadline[2*i], deadline[2*i+1] = math.Inf(1), o.Deadline
		limit[2*i], limit[2*i+1] = l, l
		riders[2*i], riders[2*i+1] = o.Riders, -o.Riders
	}
	// look[e*ne+x] is the doom rule's lookahead from a prefix's last stop e
	// through the owed event x to its member's dropoff: leg(e, x) when x is
	// the dropoff, leg(e, x) + leg(x, dropoff) when x is the pickup. On a
	// metric network no extension of the prefix reaches that dropoff sooner
	// (up to rounding); on any other the lookahead is 0 and the rule tests
	// the arrival alone.
	look := noLook[:ne*ne]
	if m, ok := p.Net.(roadnet.MetricNetwork); ok && m.TriangleSlack() <= maxTriangleSlack {
		copy(sc.look[:], legs)
		for x := 0; x < ne; x += 2 {
			direct := legs[x*ne+x+1]
			for i := x; i < ne*ne; i += ne {
				sc.look[i] += direct
			}
		}
		look = sc.look[:ne*ne]
	}

	// Level 1: each pickup as the first stop. Its mask 1<<2i has rank 1+i,
	// and its state is its own parent (chain walks count events, they do not
	// look for a root). A +Inf or doomed approach leaves it unreachable.
	work := &sc.work
	n := 0
	for i := 0; i < k; i++ {
		r, t := 1+i, t0s[i]
		if math.IsInf(t, 1) || doomed(now+t, look[2*i*ne:], tab.owe[r], &limit) {
			continue
		}
		dp[r*ne+2*i] = t
		parent[r*ne+2*i] = uint16(r*ne + 2*i)
		onboard[r] = riders[2*i]
		reach[r] = 1 << (2 * i)
		work[n] = uint16(r)
		n++
	}

	// Every mask joins the worklist when its first state is reached, and all
	// its predecessors have one fewer event, so the list stays in popcount
	// order and a mask's states are final before it is dequeued. A level no
	// state reaches empties the list before the full mask is ever reached.
	for h := 0; h < n; h++ {
		pr := int(work[h])
		mask, lasts, ob := tab.masks[pr], reach[pr], onboard[pr]
		// Pickups not yet made, and dropoffs of the members on board.
		for add := tab.owe[pr]; add != 0; add &= add - 1 {
			next := bits.TrailingZeros16(add)
			nob := ob + riders[next]
			if nob > capacity {
				continue // capacity exceeded at this pickup
			}
			due := deadline[next]
			best, from := math.Inf(1), -1
			for l := lasts; l != 0; l &= l - 1 {
				last := bits.TrailingZeros16(l)
				t := dp[pr*ne+last] + legs[last*ne+next]
				if now+t > due {
					continue // deadline violated at this dropoff
				}
				if t < best-1e-12 {
					best, from = t, pr*ne+last
				}
			}
			r := int(tab.rank[mask|1<<next])
			if from < 0 || doomed(now+best, look[next*ne:], tab.owe[r], &limit) {
				continue // unreachable, or doomed to miss a deadline it owes
			}
			if reach[r] == 0 {
				onboard[r] = nob
				work[n] = uint16(r)
				n++
			}
			reach[r] |= 1 << next
			dp[r*ne+next] = best
			parent[r*ne+next] = uint16(from)
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

// maxTriangleSlack is the largest MetricNetwork.TriangleSlack the doom
// rule's lookahead accepts: its margin covers 2k levels of that relative
// slack with orders of magnitude to spare (DESIGN.md §5).
const maxTriangleSlack = 0x1p-40

// noLook is the lookahead of a network that is not metric: all zeros, read
// by every such call and written by none.
var noLook [4 * MaxGroupSize * MaxGroupSize]float64

// doomLimit is the doom rule's limit for a member with deadline d: the
// deadline plus the margin that covers the tie band (DESIGN.md §5). It also
// budgets a leg block's searches (LegStore.Fill): a leg into one of the
// member's events that costs more than its limit less the clock lies on no
// route the DP can accept. The explicit conversion keeps the product from
// fusing into the addition.
func doomLimit(d float64) float64 {
	return d + float64(1e-9*max(1, math.Abs(d)))
}

// doomed is the doom rule for a state whose arrival, now included, is nv:
// row is the lookahead row of its last event and owe the events it can
// visit next. It is doomed when some member it still owes cannot make its
// limit even on the direct leg: nv + row[x] > limit[x] for an x in owe.
func doomed(nv float64, row []float64, owe uint16, limit *[2 * MaxGroupSize]float64) bool {
	for ; owe != 0; owe &= owe - 1 {
		x := bits.TrailingZeros16(owe)
		if nv+row[x] > limit[x] {
			return true
		}
	}
	return false
}

// planScratch holds the DP buffers a Planner reuses on every call: the
// shareability graph calls the planner millions of times per simulated
// day. The leg matrix, event locations, doom lookahead and mask worklist
// are bounded by MaxGroupSize and live inline; only the state tables,
// whose size is 3^k, grow to the largest k seen.
type planScratch struct {
	legs     [4 * MaxGroupSize * MaxGroupSize]float64
	loc      [2 * MaxGroupSize]geo.NodeID
	startSrc [1]geo.NodeID
	look     [4 * MaxGroupSize * MaxGroupSize]float64 // doom lookahead, legs' layout
	approach [MaxGroupSize]float64                    // start -> each pickup
	work     [maxMasks]uint16                         // ranks of reached masks, popcount order

	dp      []float64 // rank(mask)*ne + last -> arrival offset
	parent  []uint16  // same index -> predecessor state
	reach   []uint16  // rank(mask) -> set of reachable last events
	onboard []int     // rank(mask) -> riders picked up and not yet dropped
}

// tables returns the state tables sized for groups of k. The kernel clears
// reach once per call; it writes onboard for every mask it reaches and reads
// dp, parent and onboard only where reach says they were written.
func (s *planScratch) tables(k int) (dp []float64, parent, reach []uint16, onboard []int) {
	masks := len(dpTables[k].masks)
	if states := masks * 2 * k; cap(s.dp) < states {
		s.dp = make([]float64, states)
		s.parent = make([]uint16, states)
		s.reach = make([]uint16, masks)
		s.onboard = make([]int, masks)
	}
	return s.dp, s.parent, s.reach[:masks], s.onboard
}
