package route

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// The oracle: the route DP as it stood before the valid-states kernel — a
// push-form sweep of the whole 2^(2k) x 2k table — kept verbatim (planDP,
// ridersOnboard, PlanGroupCost's chain walk, materializePlan) except that it
// owns its tables instead of borrowing the pooled scratch and always prices
// its legs fresh from the network (the kernel's LegStore arms are held to
// that, which checks the assembly too). The kernel must reproduce it bit for
// bit; this file is the only place the old loop lives.

type oracleTables struct {
	dp     []float64
	parent []int32
}

func oraclePlanDP(p *Planner, orders []*order.Order, now float64, capacity int, start geo.NodeID, sc *oracleTables) int {
	k := len(orders)
	if k == 0 || k > MaxGroupSize {
		return -1
	}
	for _, o := range orders {
		if o.Riders > capacity {
			return -1
		}
	}

	ne := 2 * k // events: 2i = pickup of orders[i], 2i+1 = dropoff
	full := (1 << ne) - 1
	legs := make([]float64, ne*ne)
	loc := make([]geo.NodeID, ne)
	for i, o := range orders {
		loc[2*i] = o.Pickup
		loc[2*i+1] = o.Dropoff
	}
	roadnet.FillCostMatrix(p.Net, loc, loc, legs)
	var t0s []float64
	if start != geo.InvalidNode {
		pickups := make([]geo.NodeID, k)
		for i, o := range orders {
			pickups[i] = o.Pickup
		}
		t0s = make([]float64, k)
		roadnet.FillCostMatrix(p.Net, []geo.NodeID{start}, pickups, t0s)
	}
	size := (full + 1) * ne
	sc.dp, sc.parent = make([]float64, size), make([]int32, size)
	dp, parent := sc.dp, sc.parent
	for i := range dp {
		dp[i] = math.Inf(1)
		parent[i] = -1
	}
	for i := range orders {
		var t0 float64
		if t0s != nil {
			t0 = t0s[i]
		}
		dp[(1<<(2*i))*ne+2*i] = t0
	}

	for mask := 1; mask <= full; mask++ {
		onboard := -1 // computed lazily: most masks are unreachable
		for last := 0; last < ne; last++ {
			cur := dp[mask*ne+last]
			if math.IsInf(cur, 1) {
				continue
			}
			if onboard < 0 {
				onboard = oracleRidersOnboard(orders, mask)
			}
			for next := 0; next < ne; next++ {
				if mask&(1<<next) != 0 {
					continue
				}
				oi := next / 2
				if next%2 == 1 && mask&(1<<(next-1)) == 0 {
					continue // dropoff before pickup violates sequencing
				}
				if next%2 == 0 && onboard+orders[oi].Riders > capacity {
					continue // capacity exceeded at this pickup
				}
				t := cur + legs[last*ne+next]
				if next%2 == 1 && now+t > orders[oi].Deadline {
					continue // deadline violated at this dropoff
				}
				nm := mask | (1 << next)
				idx := nm*ne + next
				if t < dp[idx]-1e-12 {
					dp[idx] = t
					parent[idx] = int32(mask*ne + last)
				}
			}
		}
	}

	best := -1
	bestT := math.Inf(1)
	for last := 0; last < ne; last++ {
		if t := dp[full*ne+last]; t < bestT-1e-12 {
			bestT = t
			best = full*ne + last
		}
	}
	return best
}

func oracleRidersOnboard(orders []*order.Order, mask int) int {
	n := 0
	for i, o := range orders {
		picked := mask&(1<<(2*i)) != 0
		dropped := mask&(1<<(2*i+1)) != 0
		if picked && !dropped {
			n += o.Riders
		}
	}
	return n
}

func oraclePlanGroupCost(p *Planner, orders []*order.Order, now float64, capacity int, svc []float64) (cost, expiry float64, ok bool) {
	var sc oracleTables
	best := oraclePlanDP(p, orders, now, capacity, geo.InvalidNode, &sc)
	if best < 0 {
		return 0, 0, false
	}
	ne := 2 * len(orders)
	cost = sc.dp[best]
	for idx := best; idx >= 0; idx = int(sc.parent[idx]) {
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

func oraclePlanGroupFrom(p *Planner, orders []*order.Order, now float64, capacity int, start geo.NodeID) (*order.RoutePlan, bool) {
	var sc oracleTables
	best := oraclePlanDP(p, orders, now, capacity, start, &sc)
	if best < 0 {
		return nil, false
	}
	ne := 2 * len(orders)
	var events []int
	var arrive []float64
	for idx := best; idx >= 0; idx = int(sc.parent[idx]) {
		events = append(events, idx%ne)
		arrive = append(arrive, sc.dp[idx])
	}
	for i, j := 0, len(events)-1; i < j; i, j = i+1, j-1 {
		events[i], events[j] = events[j], events[i]
		arrive[i], arrive[j] = arrive[j], arrive[i]
	}
	plan := &order.RoutePlan{Stops: make([]order.Stop, ne), Arrive: arrive, Cost: sc.dp[best]}
	for i, ev := range events {
		o := orders[ev/2]
		kind := order.PickupStop
		node := o.Pickup
		if ev%2 == 1 {
			kind = order.DropoffStop
			node = o.Dropoff
		}
		plan.Stops[i] = order.Stop{Node: node, Kind: kind, OrderID: o.ID, Riders: o.Riders}
	}
	return plan, true
}

// holeNet wraps a network and reports +Inf for a deterministic subset of
// node pairs (and so for some approach legs): the DP must treat an
// unreachable leg exactly as the oracle does. Around a removed leg a detour
// beats the direct one, so the wrapper claims no roadnet.MetricNetwork and
// the kernel runs it without lookahead; dpCase.network hands the base
// network through untouched when there are no holes.
type holeNet struct {
	roadnet.Network
	hole uint32
}

func (h holeNet) Cost(a, b geo.NodeID) float64 {
	if h.hole != 0 && a != b && (uint32(a)*2654435761+uint32(b)*40503)%h.hole == 0 {
		return math.Inf(1)
	}
	return h.Network.Cost(a, b)
}

// scaledNet multiplies every cost by a factor with no short binary
// expansion: where the closed-form grid's route sums are exact integers and
// tie exactly, here equal-length routes differ in their last bits, which is
// what the 1e-12 band of the tie rule exists for.
type scaledNet struct {
	roadnet.Network
	factor float64
}

func (s scaledNet) Cost(a, b geo.NodeID) float64 { return s.Network.Cost(a, b) * s.factor }

// oracleNets are the networks the sweep and the fuzz target draw from.
func oracleNets() []struct {
	name string
	net  roadnet.Network
} {
	return []struct {
		name string
		net  roadnet.Network
	}{
		{"grid", roadnet.NewGridCity(12, 12, 100, 10)},
		{"graph", roadnet.NewPerturbedGrid(10, 10, 150, 8, 0.35, 5)},
		{"tenths", scaledNet{roadnet.NewGridCity(12, 12, 100, 10), 0.01}},
		// NYC's calibration: 150/7 s per block is no binary fraction, so
		// the lookahead runs on legs whose sums round.
		{"inexact", roadnet.NewGridCity(12, 12, 150, 7)},
	}
}

// dpCase is one planner question, small enough to decode from fuzz bytes.
type dpCase struct {
	orders   []*order.Order
	now      float64
	capacity int
	start    geo.NodeID
	hole     uint32 // holeNet modulus, 0 for the plain network
}

// network is the case's network over base: base itself, or base with holes.
func (c dpCase) network(base roadnet.Network) roadnet.Network {
	if c.hole == 0 {
		return base
	}
	return holeNet{base, c.hole}
}

func (c dpCase) String() string {
	s := fmt.Sprintf("now=%v cap=%d start=%d hole=%d", c.now, c.capacity, c.start, c.hole)
	for _, o := range c.orders {
		s += fmt.Sprintf(" {%d: %d->%d r%d dl%v}", o.ID, o.Pickup, o.Dropoff, o.Riders, o.Deadline)
	}
	return s
}

// checkAgainstOracle asks every entry point the case's question and
// compares with the oracle: feasibility, then math.Float64bits of cost, τg
// and each service time, and for the materializing paths every Stop and
// every Arrive. The cost-only path runs fresh, on a store filling the
// group's blocks for the call alone, and over blocks filled under member
// slots twice — once filling each slot's within-order leg, once with every
// member's pickup -> dropoff leg served from its slot memo, which blocks of
// each member with an order outside the group (the member as lo for odd
// members, as hi for even ones) filled first.
// It reports the oracle's verdicts for the free and for the case's own start.
func checkAgainstOracle(t testing.TB, base roadnet.Network, c dpCase) (free, anchored bool) {
	t.Helper()
	net := c.network(base)
	p := NewPlanner(net)
	k := len(c.orders)

	sameBits := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: kernel %v (%#x) != oracle %v (%#x)\ncase: %v", what, got, math.Float64bits(got), want, math.Float64bits(want), c)
		}
	}
	samePlan := func(what string, got *order.RoutePlan, gotOK bool, want *order.RoutePlan, wantOK bool) {
		t.Helper()
		if gotOK != wantOK {
			t.Fatalf("%s: kernel ok=%v, oracle ok=%v\ncase: %v", what, gotOK, wantOK, c)
		}
		if !wantOK {
			return
		}
		sameBits(what+" cost", got.Cost, want.Cost)
		if len(got.Stops) != len(want.Stops) || len(got.Arrive) != len(want.Arrive) {
			t.Fatalf("%s: plan lengths %d/%d vs %d/%d\ncase: %v", what, len(got.Stops), len(got.Arrive), len(want.Stops), len(want.Arrive), c)
		}
		for i := range want.Stops {
			if got.Stops[i] != want.Stops[i] {
				t.Fatalf("%s: stop %d: kernel %+v, oracle %+v\ncase: %v", what, i, got.Stops[i], want.Stops[i], c)
			}
			sameBits(fmt.Sprintf("%s arrive[%d]", what, i), got.Arrive[i], want.Arrive[i])
		}
	}

	// Cost-only path: fresh legs, a store's call-local blocks, then blocks
	// filled under member slots, the second time from warm slot memos.
	svc, wantSvc := make([]float64, MaxGroupSize), make([]float64, MaxGroupSize)
	wantCost, wantExp, wantOK := oraclePlanGroupCost(p, c.orders, c.now, c.capacity, wantSvc)
	store, memo := NewLegStore(net), NewLegStore(net)
	below := &order.Order{ID: 0, Pickup: c.orders[k-1].Dropoff, Dropoff: c.orders[0].Pickup}
	above := &order.Order{ID: k + 1, Pickup: c.orders[0].Dropoff, Dropoff: c.orders[k-1].Pickup}
	for i, o := range c.orders {
		other := above
		if i%2 == 0 {
			other = below
		}
		memo.Release(memo.Fill(o, Slot{Index: int32(i), Gen: 1}, other, NoSlot, c.now))
	}
	filling := slotBlocks(NewLegStore(net), 1, c.orders, c.now)
	warm := slotBlocks(memo, 1, c.orders, c.now)
	check := func(name string, cost, exp float64, ok bool) {
		t.Helper()
		if ok != wantOK {
			t.Fatalf("%s: kernel ok=%v, oracle ok=%v\ncase: %v", name, ok, wantOK, c)
		}
		if !ok {
			return
		}
		sameBits(name+" cost", cost, wantCost)
		sameBits(name+" expiry", exp, wantExp)
		for i := 0; i < k; i++ {
			sameBits(fmt.Sprintf("%s svc[%d]", name, i), svc[i], wantSvc[i])
		}
	}
	for _, arm := range []struct {
		name string
		legs *LegStore
	}{{"PlanGroupCost fresh", nil}, {"PlanGroupCost store", store}} {
		cost, exp, ok := p.PlanGroupCost(c.orders, c.now, c.capacity, arm.legs, svc)
		check(arm.name, cost, exp, ok)
	}
	// The member reported first starts the materialized route, and every
	// service time is the route's.
	want, ok := oraclePlanGroupFrom(p, c.orders, c.now, c.capacity, geo.InvalidNode)
	for _, arm := range []struct {
		name   string
		blocks []*LegBlock
	}{{"PlanGroupCostLegs filling slots", filling}, {"PlanGroupCostLegs warm slots", warm}} {
		cost, exp, first, ok := p.PlanGroupCostLegs(c.orders, c.now, c.capacity, arm.blocks, svc)
		check(arm.name, cost, exp, ok)
		if !ok {
			continue
		}
		if s0 := want.Stops[0]; s0.Node != c.orders[first].Pickup || s0.OrderID != c.orders[first].ID {
			t.Fatalf("%s: first member %d, the route starts at %+v\ncase: %v", arm.name, first, s0, c)
		}
		for i, o := range c.orders {
			st, _ := want.ServiceTime(o.ID)
			sameBits(fmt.Sprintf("%s svc[%d] against the route", arm.name, i), svc[i], st)
		}
	}

	// Materializing paths.
	got, gotOK := p.PlanGroup(c.orders, c.now, c.capacity)
	samePlan("PlanGroup", got, gotOK, want, ok)
	into := order.NewRoutePlan(len(c.orders))
	got, gotOK = into, p.PlanGroupInto(into, c.orders, c.now, c.capacity, warm)
	samePlan("PlanGroupInto", got, gotOK, want, ok)
	if !gotOK && !plansEqual(into, order.NewRoutePlan(len(c.orders))) {
		t.Fatalf("PlanGroupInto wrote an infeasible group's plan: %+v\ncase: %v", into, c)
	}
	wantFrom, okFrom := oraclePlanGroupFrom(p, c.orders, c.now, c.capacity, c.start)
	got, gotOK = p.PlanGroupFrom(c.orders, c.now, c.capacity, c.start)
	samePlan("PlanGroupFrom", got, gotOK, wantFrom, okFrom)
	return wantOK, okFrom
}

// TestKernelMatchesOracle sweeps the kernel against the oracle over every
// group size the DP admits (k = 5, 6 run nowhere end to end at the default
// pool MaxGroupSize of 4, so this is their only cover), riders against
// capacities — including non-overlapping groups whose summed riders exceed
// the vehicle — deadlines from hopeless to slack, now swept past τg, free
// and explicit starts, and networks with unreachable pairs.
func TestKernelMatchesOracle(t *testing.T) {
	// What the sweep must have met somewhere, or it proves less than it says.
	var serialOverCapacity, survivedExpiry, approachCutOff int
	for _, nc := range oracleNets() {
		for k := 1; k <= MaxGroupSize; k++ {
			t.Run(fmt.Sprintf("%s/k%d", nc.name, k), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(100*k + len(nc.name))))
				trials := 160
				if k >= 5 {
					trials = 40 // the oracle's 4^k table is the slow side
				}
				feasible, infeasible := 0, 0
				for trial := 0; trial < trials; trial++ {
					c := randomDPCase(rng, nc.net, k, trial)
					free, anchored := checkAgainstOracle(t, nc.net, c)
					if free && !anchored && cutOff(c.network(nc.net), c) {
						approachCutOff++
					}
					if !free {
						infeasible++
						continue
					}
					feasible++
					riders := 0
					for _, o := range c.orders {
						riders += o.Riders
					}
					if riders > c.capacity {
						serialOverCapacity++
					}
					// Sweep now up to and past the group's τg: the cheapest route
					// dies, a costlier one may survive, then nothing does.
					svc := make([]float64, MaxGroupSize)
					_, expiry, _ := NewPlanner(c.network(nc.net)).PlanGroupCost(c.orders, c.now, c.capacity, nil, svc)
					for _, now := range []float64{expiry, math.Nextafter(expiry, math.Inf(1)), expiry + 7, expiry + 60, expiry + 600} {
						later := c
						later.now = now
						if free, _ := checkAgainstOracle(t, nc.net, later); free && now > expiry {
							survivedExpiry++
						}
					}
				}
				if feasible == 0 || infeasible == 0 {
					t.Fatalf("one-sided sweep: %d feasible, %d infeasible", feasible, infeasible)
				}
			})
		}
	}
	t.Logf("met %d feasible groups with summed riders over capacity, %d routes surviving the cheapest one's τg, %d starts cut off from every pickup",
		serialOverCapacity, survivedExpiry, approachCutOff)
	if serialOverCapacity == 0 || survivedExpiry == 0 || approachCutOff == 0 {
		t.Fatal("the sweep must meet each of them at least once")
	}
}

// cutOff reports whether the case's explicit start reaches no pickup at all.
func cutOff(net roadnet.Network, c dpCase) bool {
	if c.start == geo.InvalidNode {
		return false
	}
	for _, o := range c.orders {
		if !math.IsInf(net.Cost(c.start, o.Pickup), 1) {
			return false
		}
	}
	return true
}

// randomDPCase draws one case. The trial number rotates the regime so every
// (k, network) cell sees hopeless, tight and slack deadlines, capacities
// below, at and above the summed riders, and holes in the network.
func randomDPCase(rng *rand.Rand, net roadnet.Network, k, trial int) dpCase {
	n := net.NumNodes()
	c := dpCase{capacity: 1 + rng.Intn(6), start: geo.InvalidNode}
	if trial%3 == 0 {
		c.start = geo.NodeID(rng.Intn(n))
	}
	if trial%5 == 4 {
		c.hole = uint32(3 + rng.Intn(12))
	}
	c.now = float64(rng.Intn(50))
	slack := []float64{0.6, 1.05, 1.4, 2.0, 4.0}[trial%5]
	if trial%7 == 0 {
		slack = 8 // long serial routes: riders exceed capacity yet never overlap
	}
	for i := 0; i < k; i++ {
		pu, do := geo.NodeID(rng.Intn(n)), geo.NodeID(rng.Intn(n))
		direct := net.Cost(pu, do)
		c.orders = append(c.orders, &order.Order{
			ID: i + 1, Pickup: pu, Dropoff: do, Riders: 1 + rng.Intn(3),
			Release: c.now, Deadline: c.now + slack*direct + float64(k)*30*(slack-0.6)*rng.Float64(),
			WaitLimit: 60, DirectCost: direct,
		})
	}
	return c
}

// matrixNet is a network given by its full cost matrix (coordinates all
// zero): the cases below need legs no city produces.
type matrixNet [][]float64

func (m matrixNet) NumNodes() int                { return len(m) }
func (m matrixNet) Coord(geo.NodeID) geo.Point   { return geo.Point{} }
func (m matrixNet) Cost(a, b geo.NodeID) float64 { return m[a][b] }
func (m matrixNet) Bounds() geo.Rect             { return geo.Rect{} }

// TestDoomRuleNearTie is the case the doom rule's margin exists for. On
// PA=0, DA=1, PB=2, DB=3 the prefix PB, PA arrives at PA at 100, past A's
// deadline of 100-5e-13, and is scanned first into (PA, PB, DB), where it
// holds off PA, PB, DB arriving at 100-5e-13: 5e-13 below it, inside the
// 1e-12 tie band. The oracle keeps the doomed value, so DB -> DA arrives at
// 100 and misses A's deadline: infeasible. A kernel that drops the doomed
// prefix at the bare deadline lets the live candidate through, reaches DA
// at exactly the deadline and calls the group feasible; the margin keeps the
// prefix, and the verdict.
func TestDoomRuleNearTie(t *testing.T) {
	const far = 1000
	net := matrixNet{
		{0, 0, 60, 0},            // PA -> DA, PB, DB
		{far, 0, 200, far},       // DA -> PB
		{100, 50, 0, 40 - 5e-13}, // PB -> PA, DA, DB
		{100, 0, far, 0},         // DB -> PA, DA
	}
	a := &order.Order{ID: 1, Pickup: 0, Dropoff: 1, Riders: 1, Deadline: 60 + (40 - 5e-13)}
	b := &order.Order{ID: 2, Pickup: 2, Dropoff: 3, Riders: 1, Deadline: 150}
	c := dpCase{orders: []*order.Order{a, b}, capacity: 2, start: geo.InvalidNode}
	// The case bites only while the doomed prefix is doomed at the bare
	// deadline and the live candidate sits inside its tie band.
	doomed, live := net[2][0], net[0][2]+net[2][3]
	if !(doomed > a.Deadline) || !(live < doomed) || live < doomed-1e-12 || live > a.Deadline {
		t.Fatalf("case out of shape: doomed %v, live %v, deadline %v", doomed, live, a.Deadline)
	}
	if free, _ := checkAgainstOracle(t, net, c); free {
		t.Fatal("the oracle calls the near-tie group feasible; the case tests nothing")
	}
}

// TestDoomRuleBoundary pins the rule's edge on a solo order whose approach
// leg is the arrival under test: a state arriving exactly at the earliest
// owed deadline plus margin stays reached, one ulp later it is dropped.
// Either way the oracle's verdict stands (the deadline is far behind both).
func TestDoomRuleBoundary(t *testing.T) {
	const deadline = 100.0
	owed := deadline + float64(1e-9*deadline)
	for _, tc := range []struct {
		arrive float64
		reach  bool
	}{{owed, true}, {math.Nextafter(owed, math.Inf(1)), false}} {
		net := matrixNet{{0, tc.arrive, 0}, {0, 0, 0}, {0, 0, 0}} // start 0, pickup 1, dropoff 2
		o := &order.Order{ID: 1, Pickup: 1, Dropoff: 2, Riders: 1, Deadline: deadline}
		c := dpCase{orders: []*order.Order{o}, capacity: 1, start: 0}
		if _, anchored := checkAgainstOracle(t, net, c); anchored {
			t.Fatal("the oracle serves an order whose pickup is reached past its deadline")
		}
		var sc planScratch
		NewPlanner(net).planDP(c.orders, 0, 1, 0, nil, &sc)
		if got := sc.reach[1] != 0; got != tc.reach {
			t.Errorf("arrival %v against owed %v: reached %v, want %v", tc.arrive, owed, got, tc.reach)
		}
	}
}

// lineNet is a network of points on a line, Cost their distance: metric up
// to the rounding of one subtraction, so it claims roadnet.MetricNetwork and
// the kernel runs the doom rule's lookahead on it.
type lineNet []float64

func (l lineNet) NumNodes() int                { return len(l) }
func (l lineNet) Coord(n geo.NodeID) geo.Point { return geo.Point{X: l[n]} }
func (l lineNet) Cost(a, b geo.NodeID) float64 { return math.Abs(l[a] - l[b]) }
func (l lineNet) Bounds() geo.Rect             { return geo.Rect{} }
func (l lineNet) TriangleSlack() float64       { return 0x1p-50 }

// claimsMetric wraps a network that is not metric and claims it is: the
// kernel then looks ahead on legs a detour can beat.
type claimsMetric struct{ roadnet.Network }

func (claimsMetric) TriangleSlack() float64 { return 0 }

// TestLookaheadNearTie is TestDoomRuleNearTie for the lookahead: a prefix
// whose arrival is live but whose direct leg to an owed dropoff passes the
// bare deadline holds off a live candidate inside the tie band. On a line,
// PA=0 at 50+e, DA=1 at -30, PB=2 at 50, DB=3 at 0, e = 2^-41 (every sum
// below is exact): the prefix PB alone is doomed for A by e at the bare
// deadline (PB, PA, DA arrives at 80+2e; A is due at 80+e), and PB, PA
// arrives at DB at 50+2e, holding off PA, PB, DB at 50+e. The oracle keeps
// the held-off value, so DB -> DA arrives at 80+2e: infeasible, as is every
// other order of the four stops. A kernel without the margin drops PB at
// level 1, lets PA, PB, DB through and reaches DA exactly at A's deadline:
// feasible. With the margin the prefix stays, and so does the verdict.
func TestLookaheadNearTie(t *testing.T) {
	const e = 0x1p-41
	net := lineNet{50 + e, -30, 50, 0}
	a := &order.Order{ID: 1, Pickup: 0, Dropoff: 1, Riders: 1, Deadline: 80 + e}
	b := &order.Order{ID: 2, Pickup: 2, Dropoff: 3, Riders: 1, Deadline: 60}
	c := dpCase{orders: []*order.Order{a, b}, capacity: 2, start: geo.InvalidNode}
	// The case bites only while the prefix is doomed by the lookahead alone,
	// within the margin, and the live candidate sits inside its tie band.
	ahead := net.Cost(2, 0) + net.Cost(0, 1)
	doomed, live := net.Cost(2, 0)+net.Cost(0, 3), net.Cost(0, 2)+net.Cost(2, 3)
	margin := float64(1e-9 * a.Deadline)
	switch {
	case !(ahead > a.Deadline) || ahead > a.Deadline+margin || net.Cost(2, 0) > a.Deadline:
		t.Fatalf("case out of shape: lookahead %v against deadline %v", ahead, a.Deadline)
	case !(live < doomed) || live < doomed-1e-12 || live+net.Cost(3, 1) != a.Deadline || live > b.Deadline:
		t.Fatalf("case out of shape: doomed %v, live %v", doomed, live)
	}
	if free, _ := checkAgainstOracle(t, net, c); free {
		t.Fatal("the oracle calls the near-tie group feasible; the case tests nothing")
	}
}

// TestLookaheadBoundary pins the lookahead's edge for both kinds of owed
// member, on the first stop PA of a two-order group: once A (on board)
// binds, through its direct leg PA -> DA, once B (waiting) binds, through
// PA -> PB -> DB. A state whose arrival plus lookahead is exactly the
// member's deadline plus margin stays reached; one ulp later it is dropped.
// Each case is also held to the oracle.
func TestLookaheadBoundary(t *testing.T) {
	const deadline, loose = 100.0, 1000.0
	limit := deadline + float64(1e-9*deadline)
	for _, tc := range []struct {
		name  string
		ahead float64
		reach bool
	}{{"at", limit, true}, {"ulp-past", math.Nextafter(limit, math.Inf(1)), false}} {
		for _, binds := range []string{"on-board", "waiting"} {
			// Nodes PA=0, DA=1, PB=2, DB=3.
			net, dA, dB := lineNet{0, tc.ahead, -1, -2}, deadline, loose
			if binds == "waiting" {
				net, dA, dB = lineNet{0, 1, -1, -tc.ahead}, loose, deadline
			}
			la := map[string]float64{"on-board": net.Cost(0, 1), "waiting": net.Cost(0, 2) + net.Cost(2, 3)}[binds]
			if la != tc.ahead {
				t.Fatalf("%s/%s: lookahead %v, want %v", tc.name, binds, la, tc.ahead)
			}
			a := &order.Order{ID: 1, Pickup: 0, Dropoff: 1, Riders: 1, Deadline: dA}
			b := &order.Order{ID: 2, Pickup: 2, Dropoff: 3, Riders: 1, Deadline: dB}
			c := dpCase{orders: []*order.Order{a, b}, capacity: 2, start: geo.InvalidNode}
			checkAgainstOracle(t, net, c)
			var sc planScratch
			NewPlanner(net).planDP(c.orders, 0, 2, geo.InvalidNode, nil, &sc)
			if got := sc.reach[1] != 0; got != tc.reach {
				t.Errorf("%s/%s: lookahead %v against limit %v: PA reached %v, want %v", tc.name, binds, la, limit, got, tc.reach)
			}
		}
	}
}

// TestLookaheadNeedsMetric: on a matrix where PA -> PB -> DA (20 s) beats
// the direct PA -> DA (100 s), A is served by 50 only through that detour.
// The lookahead from PA reads the direct leg and would drop the only
// feasible prefixes; claiming the network metric forces it on and breaks
// agreement with the oracle. The plain matrix claims nothing, and neither do
// the test wrappers, so the kernel tests arrivals alone and agrees.
func TestLookaheadNeedsMetric(t *testing.T) {
	net := matrixNet{
		{0, 100, 10, 40}, // PA -> DA, PB, DB
		{100, 0, 90, 30}, // DA -> PA, PB, DB
		{10, 10, 0, 30},  // PB -> PA, DA, DB
		{40, 30, 30, 0},  // DB -> PA, DA, PB
	}
	a := &order.Order{ID: 1, Pickup: 0, Dropoff: 1, Riders: 1, Deadline: 50}
	b := &order.Order{ID: 2, Pickup: 2, Dropoff: 3, Riders: 1, Deadline: 100}
	c := dpCase{orders: []*order.Order{a, b}, capacity: 2, start: geo.InvalidNode}
	for _, n := range []roadnet.Network{net, holeNet{lineNet{0, 1}, 3}, scaledNet{lineNet{0, 1}, 0.01}} {
		if _, ok := n.(roadnet.MetricNetwork); ok {
			t.Fatalf("%T claims to be metric", n)
		}
	}
	if free, _ := checkAgainstOracle(t, net, c); !free {
		t.Fatal("the oracle calls the detour group infeasible; the case tests nothing")
	}
	if _, ok := NewPlanner(claimsMetric{net}).PlanGroup(c.orders, 0, 2); ok {
		t.Fatal("the lookahead forced onto a non-metric network still finds the detour; the case tests nothing")
	}
}

// TestDPTableShape pins the precomputed state-space tables: exactly the
// 3^k pickup-before-dropoff masks, by ascending popcount and every mask
// after all of its sub-masks, rank the inverse of masks, the owed-event
// sets exact, and the largest table the size of the kernel's worklist.
func TestDPTableShape(t *testing.T) {
	pow3 := 1
	for k := 1; k <= MaxGroupSize; k++ {
		pow3 *= 3
		tab := &dpTables[k]
		ne := 2 * k
		valid := func(mask int) bool {
			for i := 0; i < k; i++ {
				if mask&(1<<(2*i+1)) != 0 && mask&(1<<(2*i)) == 0 {
					return false
				}
			}
			return true
		}
		if len(tab.masks) != pow3 || len(tab.owe) != pow3 || len(tab.rank) != 1<<ne {
			t.Fatalf("k=%d: %d masks, %d owed sets, %d ranks; want %d, %d, %d",
				k, len(tab.masks), len(tab.owe), len(tab.rank), pow3, pow3, 1<<ne)
		}
		if tab.masks[0] != 0 || int(tab.masks[pow3-1]) != 1<<ne-1 {
			t.Fatalf("k=%d: first/last mask %#x/%#x", k, tab.masks[0], tab.masks[pow3-1])
		}
		for i := 0; i < k; i++ {
			// planDP seeds level 1 by this identity.
			if int(tab.masks[1+i]) != 1<<(2*i) {
				t.Fatalf("k=%d: rank %d holds %#x, want pickup %d alone", k, 1+i, tab.masks[1+i], i)
			}
		}
		for r := 1; r < pow3; r++ {
			if bits.OnesCount16(tab.masks[r]) < bits.OnesCount16(tab.masks[r-1]) {
				t.Fatalf("k=%d: rank %d (%#x) has fewer events than rank %d (%#x)", k, r, tab.masks[r], r-1, tab.masks[r-1])
			}
		}
		nValid := 0
		for mask := 0; mask < 1<<ne; mask++ {
			r := tab.rank[mask]
			if !valid(mask) {
				if r != noRank {
					t.Fatalf("k=%d: invalid mask %#x has rank %d", k, mask, r)
				}
				continue
			}
			nValid++
			if int(r) >= pow3 || int(tab.masks[r]) != mask {
				t.Fatalf("k=%d: rank[%#x] = %d does not invert masks", k, mask, r)
			}
			var want uint16
			for i := 0; i < k; i++ {
				switch {
				case mask&(1<<(2*i)) == 0:
					want |= 1 << (2 * i) // waiting: its pickup is next
				case mask&(1<<(2*i+1)) == 0:
					want |= 1 << (2*i + 1) // on board: its dropoff is next
				}
			}
			if tab.owe[r] != want {
				t.Fatalf("k=%d: owe[%#x] = %#x, want %#x", k, mask, tab.owe[r], want)
			}
			// Every sub-mask that is itself valid ranks earlier.
			for sub := mask; sub != 0; {
				sub = (sub - 1) & mask
				if valid(sub) && tab.rank[sub] >= r {
					t.Fatalf("k=%d: sub-mask %#x (rank %d) not before %#x (rank %d)", k, sub, tab.rank[sub], mask, r)
				}
			}
		}
		if nValid != pow3 {
			t.Fatalf("k=%d: %d valid masks by definition, want %d", k, nValid, pow3)
		}
	}
	if len(dpTables[MaxGroupSize].masks) != maxMasks {
		t.Fatalf("maxMasks = %d, but k = %d has %d masks", maxMasks, MaxGroupSize, len(dpTables[MaxGroupSize].masks))
	}
}

// FuzzPlanGroup decodes bytes into a planner question (k = 1..6, riders
// 1..3, capacity 1..6, deadlines from hopeless to slack, free or explicit
// start, optionally a network with holes) and holds every entry point to
// the oracle. The seed corpus under testdata/fuzz/FuzzPlanGroup runs in
// plain `go test`.
func FuzzPlanGroup(f *testing.F) {
	nets := oracleNets()
	f.Add([]byte{0, 2, 4, 0, 0, 0, 1, 10, 1, 40, 2, 11, 1, 40})
	f.Add([]byte{1, 4, 2, 9, 5, 3, 0, 63, 2, 20, 7, 56, 3, 10, 9, 18, 1, 90, 60, 3, 2, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		net := nets[int(data[0]&3)%len(nets)].net
		if c, ok := decodeDPCase(data, net); ok {
			checkAgainstOracle(t, net, c)
		}
	})
}

// decodeDPCase reads a header of 6 bytes — flags (bits 0-1 pick the
// network, bit 2 explicit start, bit 3 holes, bit 4 every deadline one ulp
// earlier), k, capacity, now, start node, hole modulus — then 4 bytes per
// order: pickup, dropoff, riders, and the deadline's distance beyond now in
// twentieths of the longest possible leg.
func decodeDPCase(data []byte, net roadnet.Network) (c dpCase, ok bool) {
	n := net.NumNodes()
	span := net.Cost(0, geo.NodeID(n-1)) // corner to corner
	if len(data) < 6 {
		return c, false
	}
	flags, k := data[0], 1+int(data[1])%MaxGroupSize
	if len(data) < 6+4*k {
		return c, false
	}
	c.capacity = 1 + int(data[2])%6
	c.now = float64(data[3])
	c.start = geo.InvalidNode
	if flags&4 != 0 {
		c.start = geo.NodeID(int(data[4]) % n)
	}
	if flags&8 != 0 {
		c.hole = 2 + uint32(data[5])%14
	}
	for i := 0; i < k; i++ {
		b := data[6+4*i:]
		deadline := c.now + float64(b[3])/20*span
		if flags&16 != 0 {
			deadline = math.Nextafter(deadline, math.Inf(-1))
		}
		c.orders = append(c.orders, &order.Order{
			ID: i + 1, Pickup: geo.NodeID(int(b[0]) % n), Dropoff: geo.NodeID(int(b[1]) % n),
			Riders: 1 + int(b[2])%3, Release: c.now, Deadline: deadline,
		})
	}
	return c, true
}
