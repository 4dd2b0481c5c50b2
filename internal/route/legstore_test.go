package route

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// randomGroup builds k random orders with enough deadline slack that most
// groups are feasible but some are not.
// IDs are unique across calls: LegStore/plan-cache keys are order IDs, and
// live IDs are unique in any real pool.
var nextTestID int

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

func randomGroup(net roadnet.Network, rng *rand.Rand, side, k int) []*order.Order {
	orders := make([]*order.Order, 0, k)
	cx, cy := rng.Intn(side), rng.Intn(side)
	pick := func() geo.NodeID {
		x := min(max(cx+rng.Intn(9)-4, 0), side-1)
		y := min(max(cy+rng.Intn(9)-4, 0), side-1)
		return geo.NodeID(y*side + x)
	}
	for i := 0; i < k; i++ {
		pu, do := pick(), pick()
		if pu == do {
			do = geo.NodeID((int(do) + 1) % (side * side))
		}
		direct := net.Cost(pu, do)
		nextTestID++
		orders = append(orders, &order.Order{
			ID: nextTestID, Pickup: pu, Dropoff: do, Riders: 1,
			Release: 0, Deadline: (1.2 + rng.Float64()) * direct,
			WaitLimit: 0.8 * direct, DirectCost: direct,
		})
	}
	return orders
}

func plansEqual(a, b *order.RoutePlan) bool {
	if a.Cost != b.Cost || len(a.Stops) != len(b.Stops) {
		return false
	}
	for i := range a.Stops {
		if a.Stops[i] != b.Stops[i] || a.Arrive[i] != b.Arrive[i] {
			return false
		}
	}
	return true
}

// slotBlocks fills the group's pair blocks at clock now in planner order,
// each member under slot i of the given generation.
func slotBlocks(store *LegStore, gen uint32, orders []*order.Order, now float64) []*LegBlock {
	var blocks []*LegBlock
	for i := range orders {
		for j := i + 1; j < len(orders); j++ {
			blocks = append(blocks, store.Fill(orders[i], Slot{Index: int32(i), Gen: gen}, orders[j], Slot{Index: int32(j), Gen: gen}, now))
		}
	}
	return blocks
}

// TestPlanGroupIntoMatchesFresh drives random groups on both network
// kinds and checks that block-assembled plans are bit-identical to plans
// built from fresh batched queries.
func TestPlanGroupIntoMatchesFresh(t *testing.T) {
	nets := map[string]roadnet.Network{
		"grid":  roadnet.NewGridCity(16, 16, 100, 10),
		"graph": roadnet.NewPerturbedGrid(16, 16, 150, 8, 0.3, 7),
	}
	for name, net := range nets {
		p := NewPlanner(net)
		store := NewLegStore(net)
		rng := rand.New(rand.NewSource(11))
		feasible := 0
		for trial := 0; trial < 120; trial++ {
			orders := randomGroup(net, rng, 16, 2+rng.Intn(3))
			blocks := slotBlocks(store, uint32(trial+1), orders, 0)
			fresh, okFresh := p.PlanGroup(orders, 0, 4)
			shared := order.NewRoutePlan(len(orders))
			okShared := p.PlanGroupInto(shared, orders, 0, 4, blocks)
			if okFresh != okShared {
				t.Fatalf("%s trial %d: feasibility diverged fresh=%v shared=%v", name, trial, okFresh, okShared)
			}
			if okFresh {
				feasible++
				if !plansEqual(fresh, shared) {
					t.Fatalf("%s trial %d: block-assembled plan diverged:\nfresh:  %+v\nshared: %+v", name, trial, fresh, shared)
				}
				// Replan through the same blocks: reading them again must
				// give the same bits as the first read.
				again := order.NewRoutePlan(len(orders))
				okAgain := p.PlanGroupInto(again, orders, 0, 4, blocks)
				if !okAgain || !plansEqual(fresh, again) {
					t.Fatalf("%s trial %d: replan over the same blocks diverged", name, trial)
				}
			}
			for _, blk := range blocks {
				store.Release(blk)
			}
		}
		if feasible == 0 {
			t.Fatalf("%s: no feasible trials, test is vacuous", name)
		}
		if _, fills := store.Stats(); fills == 0 || store.Len() != 0 {
			t.Fatalf("%s: store never exercised or leaks blocks (fills=%d live=%d)", name, fills, store.Len())
		}
	}
}

// TestPlanGroupCostMatchesPlanGroup checks the cost-only fast path returns
// exactly the cost, per-member service times and τg the materializing path
// produces, with and without a LegStore, and that the member
// PlanGroupCostLegs reports first is the one whose pickup starts the plan.
func TestPlanGroupCostMatchesPlanGroup(t *testing.T) {
	net := roadnet.NewPerturbedGrid(14, 14, 150, 8, 0.3, 3)
	p := NewPlanner(net)
	store := NewLegStore(net)
	rng := rand.New(rand.NewSource(5))
	svc := make([]float64, MaxGroupSize)
	feasible := 0
	for trial := 0; trial < 150; trial++ {
		orders := randomGroup(net, rng, 14, 1+rng.Intn(4))
		var legs *LegStore
		if trial%2 == 0 {
			legs = store
		}
		plan, okPlan := p.PlanGroup(orders, 0, 4)
		cost, expiry, okCost := p.PlanGroupCost(orders, 0, 4, legs, svc)
		if okPlan != okCost {
			t.Fatalf("trial %d: feasibility diverged plan=%v cost=%v", trial, okPlan, okCost)
		}
		if !okPlan {
			continue
		}
		feasible++
		if cost != plan.Cost {
			t.Fatalf("trial %d: cost %v != plan cost %v", trial, cost, plan.Cost)
		}
		wantExpiry := math.Inf(1)
		for i, o := range orders {
			st, ok := plan.ServiceTime(o.ID)
			if !ok {
				t.Fatalf("trial %d: plan misses member %d", trial, o.ID)
			}
			if svc[i] != st {
				t.Fatalf("trial %d: svc[%d]=%v != plan service %v", trial, i, svc[i], st)
			}
			if e := o.Deadline - st; e < wantExpiry {
				wantExpiry = e
			}
		}
		if expiry != wantExpiry {
			t.Fatalf("trial %d: expiry %v != %v", trial, expiry, wantExpiry)
		}
		_, _, first, _ := p.PlanGroupCostLegs(orders, 0, 4, nil, svc)
		if s0 := plan.Stops[0]; s0.Node != orders[first].Pickup || s0.OrderID != orders[first].ID || s0.Kind != order.PickupStop {
			t.Fatalf("trial %d: first member %d (pickup %v), plan starts at %+v", trial, first, orders[first].Pickup, s0)
		}
	}
	if feasible < 20 {
		t.Fatalf("only %d feasible trials, test is weak", feasible)
	}
}

// countingNet counts Cost calls; it offers no batched engine, so a block's
// eight cross legs are eight calls too.
type countingNet struct {
	roadnet.Network
	calls int
}

func (c *countingNet) Cost(a, b geo.NodeID) float64 {
	c.calls++
	return c.Network.Cost(a, b)
}

// TestLegStoreSlotGenerations: a slot's within-order leg is asked of the
// network once per generation; a slot reused under a new generation gets its
// new order's leg, never the previous order's; and an order without a slot
// is never memoized.
func TestLegStoreSlotGenerations(t *testing.T) {
	net := &countingNet{Network: roadnet.NewGridCity(10, 10, 100, 10)}
	store := NewLegStore(net)
	mkO := func(id int, pu, do geo.NodeID) *order.Order {
		return &order.Order{ID: id, Pickup: pu, Dropoff: do, Riders: 1, Deadline: 1e9}
	}
	a, b, c, d := mkO(1, 0, 5), mkO(2, 10, 15), mkO(3, 20, 25), mkO(4, 30, 99)
	sa, sb := Slot{Index: 0, Gen: 1}, Slot{Index: 1, Gen: 1}
	fill := func(x *order.Order, sx Slot, y *order.Order, sy Slot, wantCalls int) *LegBlock {
		t.Helper()
		before := net.calls
		blk := store.Fill(x, sx, y, sy, 0)
		if got := net.calls - before; got != wantCalls {
			t.Fatalf("fill of %d-%d made %d Cost calls, want %d", x.ID, y.ID, got, wantCalls)
		}
		return blk
	}
	fill(a, sa, b, sb, 10)                           // 8 cross legs, both within legs
	fill(c, Slot{Index: 2, Gen: 1}, a, sa, 9)        // a's within leg from its slot
	fill(a, NoSlot, b, NoSlot, 10)                   // no slot, no memo
	blk := fill(a, sa, d, Slot{Index: 1, Gen: 2}, 9) // slot 1 reused by d
	if got, want := blk.c[legWithinHi], net.Network.Cost(d.Pickup, d.Dropoff); got != want {
		t.Fatalf("reused slot served within leg %v, want d's %v", got, want)
	}
	if store.Len() != 4 {
		t.Fatalf("live blocks = %d, want 4", store.Len())
	}
	if _, fills := store.Stats(); fills != 4 {
		t.Fatalf("fills = %d, want 4", fills)
	}
}

// TestLegStoreReleaseRecyclesBlock: a released block becomes the next
// fill's storage — the next pair must read its own costs out of it, and a
// fill-and-release cycle (what a failed pair test is) must not allocate.
func TestLegStoreReleaseRecyclesBlock(t *testing.T) {
	net := roadnet.NewPerturbedGrid(8, 8, 150, 8, 0.3, 2)
	store := NewLegStore(net)
	mkO := func(id int, pu, do geo.NodeID) *order.Order {
		return &order.Order{ID: id, Pickup: pu, Dropoff: do, Riders: 1, Deadline: 1e9}
	}
	a, b, c := mkO(1, 0, 5), mkO(2, 10, 15), mkO(3, 20, 63)
	sa, sb, sc := Slot{Index: 0, Gen: 1}, Slot{Index: 1, Gen: 1}, Slot{Index: 2, Gen: 1}
	dropped := store.Fill(a, sa, b, sb, 0)
	store.Release(dropped)
	if store.Len() != 0 {
		t.Fatalf("blocks after release = %d", store.Len())
	}
	got := store.Fill(c, sc, a, sa, 0)
	if got != dropped {
		t.Fatal("the released block was not recycled by the next fill")
	}
	// The ten cells a plan reads hold the a-c costs; the other six hold the
	// sentinel, whatever the recycled block held there before.
	var want LegBlock
	nodes := []geo.NodeID{a.Pickup, a.Dropoff, c.Pickup, c.Dropoff}
	roadnet.FillCostMatrix(net, nodes, nodes, want.c[:])
	for _, at := range legUnreadAt {
		want.c[at] = legUnread
	}
	for at := range want.c {
		if math.Float64bits(got.c[at]) != math.Float64bits(want.c[at]) {
			t.Fatalf("recycled block cell %d holds %v, want %v (block %v)", at, got.c[at], want.c[at], got.c)
		}
	}
	if again := store.Fill(a, sa, b, sb, 0); again == got {
		t.Fatal("a live block was handed out twice")
	}
	if raceEnabled {
		return // pooled search scratch is dropped at random; counts mean nothing
	}
	if n := testing.AllocsPerRun(50, func() {
		store.Release(store.Fill(a, sa, b, sb, 0))
	}); n != 0 {
		t.Fatalf("a fill-and-release cycle allocates %v times, want 0", n)
	}
}

// TestLegBlockBudgetEdges holds plans over budgeted leg blocks to plans over
// exact legs, bit for bit, on a path whose whole-number weights make every
// sum of legs exact: stops at nodes 0 -100- 2 -500- 4 -100- 6, each leg two
// edges long, so a search its budget stops early leaves the far stop
// unlabelled and reports it +Inf. Each case fills its pair's block at one
// clock and plans it then and at later clocks, on ALT and on the hierarchy:
//
//   - owner: one member must be served first, before its tight deadline,
//     and the route then crosses to the other member on a leg beyond the
//     tight member's budget but within its owner's; planning over a block
//     that budgets the leg by the wrong member loses the only route;
//   - margin: both pickups share node 2, and the later order's dropoff is
//     due at the fill clock plus 500 rounded down, one ulp of the leg below
//     the exact sum, so the deadline less the clock leaves the leg
//     P_lo -> D_hi one ulp over; the doom limit's margin keeps it, and the
//     route the DP picks with it;
//   - edge: the member served first has its budget at, one ulp below and
//     one ulp above the 600 s leg from the other's dropoff to its own.
//
// Every cross cell must also be its cost, or +Inf beyond its owner's budget.
// Dropping the margin (deadline - now), swapping the owners' budgets and
// giving both matrices the earlier deadline each fail the test; the first
// only on the hierarchy, whose budget-pruned cone leaves a leg one ulp
// beyond unlabelled where ALT's deflated bound still settles it.
func TestLegBlockBudgetEdges(t *testing.T) {
	build := func(hierarchy bool) *roadnet.Graph {
		var b roadnet.GraphBuilder
		for i := 0; i < 7; i++ {
			b.AddNode(geo.Point{X: float64(i)})
		}
		for i, w := range []float64{50, 50, 250, 250, 50, 50} {
			b.AddBidirectional(geo.NodeID(i), geo.NodeID(i+1), w)
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if hierarchy {
			g.EnableHierarchy()
		}
		return g
	}
	// The fill clock of every case but margin, low enough that f + 600 keeps
	// the ulp of 600, so a budget one ulp either side of it is a limit less f.
	const f = 300.25
	// deadlineFor returns the deadline whose budget at clock now is exactly
	// budget: doomLimit(d) - now == budget.
	deadlineFor := func(budget, now float64) float64 {
		lo, hi := now+budget-1, now+budget
		for lo < hi && math.Nextafter(lo, hi) < hi {
			if mid := lo + (hi-lo)/2; doomLimit(mid)-now < budget {
				lo = mid
			} else {
				hi = mid
			}
		}
		for d := lo; d <= hi; d = math.Nextafter(d, math.Inf(1)) {
			if doomLimit(d)-now == budget {
				return d
			}
		}
		t.Fatalf("no deadline puts the budget at clock %v at %v", now, budget)
		return 0
	}
	// The margin case's fill clock, at which fm + 500 rounds down.
	fm := 300.1
	for 500+fm-fm >= 500 {
		fm = math.Nextafter(fm, math.Inf(1))
	}
	type member struct {
		pu, do   geo.NodeID
		deadline float64
	}
	type budgetCase struct {
		name   string
		now    float64 // the fill clock
		lo, hi member
	}
	cases := []budgetCase{
		{"owner lo", f, member{0, 2, f + 150}, member{4, 6, f + 1000}},
		{"owner hi", f, member{4, 6, f + 1000}, member{0, 2, f + 150}},
		{"margin", fm, member{2, 6, fm + 2000}, member{2, 4, fm + 500}},
	}
	for _, u := range []float64{-1, 0, 1} {
		budget := 600 + u*0x1p-43 // one ulp of 600 is 2^-43
		d := deadlineFor(budget, f)
		cases = append(cases,
			budgetCase{fmt.Sprintf("edge lo %+v ulp", u), f, member{0, 2, d}, member{4, 6, f + 1000}},
			budgetCase{fmt.Sprintf("edge hi %+v ulp", u), f, member{4, 6, f + 1000}, member{0, 2, d}})
	}
	for _, hierarchy := range []bool{false, true} {
		net := build(hierarchy)
		p := NewPlanner(net)
		store := NewLegStore(net)
		pruned := 0
		for _, c := range cases {
			orders := []*order.Order{
				{ID: 1, Pickup: c.lo.pu, Dropoff: c.lo.do, Riders: 1, Release: c.now, Deadline: c.lo.deadline},
				{ID: 2, Pickup: c.hi.pu, Dropoff: c.hi.do, Riders: 1, Release: c.now, Deadline: c.hi.deadline},
			}
			blk := store.Fill(orders[0], NoSlot, orders[1], NoSlot, c.now)
			// Each cross cell is its cost, or +Inf when that cost is beyond
			// the budget of the member it arrives at.
			nodes := [4]geo.NodeID{c.lo.pu, c.lo.do, c.hi.pu, c.hi.do}
			for from := range nodes {
				for to := range nodes {
					if from/2 == to/2 {
						continue
					}
					cell, exact := blk.c[from*4+to], net.Cost(nodes[from], nodes[to])
					beyond := exact > doomLimit(orders[to/2].Deadline)-c.now
					if math.Float64bits(cell) != math.Float64bits(exact) && !(beyond && math.IsInf(cell, 1)) {
						t.Fatalf("hierarchy=%v %s: leg %d -> %d holds %v, costs %v", hierarchy, c.name, from, to, cell, exact)
					}
					if math.IsInf(cell, 1) {
						pruned++
					}
				}
			}
			blocks := []*LegBlock{blk}
			svc, want := make([]float64, MaxGroupSize), make([]float64, MaxGroupSize)
			for _, now := range []float64{c.now, math.Nextafter(c.now, math.Inf(1)), c.now + 1, c.now + 50, c.now + 100, c.now + 450, c.now + 500, c.now + 600, c.now + 900} {
				what := fmt.Sprintf("hierarchy=%v %s at %v", hierarchy, c.name, now)
				fresh, okFresh := p.PlanGroup(orders, now, 4)
				if now == c.now && !okFresh {
					t.Fatalf("%s: no route at the fill clock, the case is vacuous", what)
				}
				into := order.NewRoutePlan(2)
				if ok := p.PlanGroupInto(into, orders, now, 4, blocks); ok != okFresh || ok && !plansEqual(into, fresh) {
					t.Fatalf("%s: the block plans %v %+v, exact legs %v %+v", what, ok, into, okFresh, fresh)
				}
				cost, expiry, first, ok := p.PlanGroupCostLegs(orders, now, 4, blocks, svc)
				wCost, wExpiry, wFirst, wOK := p.PlanGroupCostLegs(orders, now, 4, nil, want)
				if ok != wOK || ok && (math.Float64bits(cost) != math.Float64bits(wCost) || math.Float64bits(expiry) != math.Float64bits(wExpiry) ||
					first != wFirst || math.Float64bits(svc[0]) != math.Float64bits(want[0]) || math.Float64bits(svc[1]) != math.Float64bits(want[1])) {
					t.Fatalf("%s: the block's cost-only plan %v %v %v %d %v, exact legs %v %v %v %d %v", what, ok, cost, expiry, first, svc[:2], wOK, wCost, wExpiry, wFirst, want[:2])
				}
			}
			store.Release(blk)
		}
		if pruned == 0 {
			t.Fatalf("hierarchy=%v: no cross leg came back beyond its budget, the budgets are never exercised", hierarchy)
		}
	}
}
