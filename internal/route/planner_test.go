package route

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

func testCity() *roadnet.GridCity { return roadnet.NewGridCity(20, 20, 100, 10) }

// mk builds an order with deadline tau*direct and wait limit 0.8*direct.
func mk(net roadnet.Network, id int, pickup, dropoff geo.NodeID, release, tau float64) *order.Order {
	direct := net.Cost(pickup, dropoff)
	return &order.Order{
		ID: id, Pickup: pickup, Dropoff: dropoff, Riders: 1,
		Release: release, Deadline: release + tau*direct,
		WaitLimit: 0.8 * direct, DirectCost: direct,
	}
}

func TestPlanSingleOrder(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	o := mk(net, 1, net.Node(0, 0), net.Node(5, 0), 0, 2.0)
	plan, ok := p.PlanGroup([]*order.Order{o}, 0, 4)
	if !ok {
		t.Fatal("single order must be plannable")
	}
	if len(plan.Stops) != 2 {
		t.Fatalf("stops = %d", len(plan.Stops))
	}
	if plan.Stops[0].Kind != order.PickupStop || plan.Stops[1].Kind != order.DropoffStop {
		t.Fatalf("stop kinds wrong: %+v", plan.Stops)
	}
	if math.Abs(plan.Cost-o.DirectCost) > 1e-9 {
		t.Fatalf("cost %v != direct %v", plan.Cost, o.DirectCost)
	}
	if st, _ := plan.ServiceTime(1); math.Abs(st-o.DirectCost) > 1e-9 {
		t.Fatalf("service time %v", st)
	}
}

func TestPlanPairSharedCorridor(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	// Two orders along the same east-bound corridor: a->c and b->d with
	// a(0,0) b(1,0) c(5,0) d(6,0). Optimal: pick a, pick b, drop c, drop d.
	a := mk(net, 1, net.Node(0, 0), net.Node(5, 0), 0, 2.0)
	b := mk(net, 2, net.Node(1, 0), net.Node(6, 0), 0, 2.0)
	plan, ok := p.PlanGroup([]*order.Order{a, b}, 0, 4)
	if !ok {
		t.Fatal("corridor pair must be shareable")
	}
	if math.Abs(plan.Cost-60) > 1e-9 { // 6 blocks * 10s
		t.Fatalf("cost = %v, want 60", plan.Cost)
	}
	// Order of stops must be pickup(1), pickup(2), dropoff(1), dropoff(2).
	wantKinds := []order.StopKind{order.PickupStop, order.PickupStop, order.DropoffStop, order.DropoffStop}
	for i, s := range plan.Stops {
		if s.Kind != wantKinds[i] {
			t.Fatalf("stop %d kind %v", i, s.Kind)
		}
	}
}

func TestSequentialConstraint(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	o := mk(net, 1, net.Node(0, 0), net.Node(3, 0), 0, 3.0)
	plan, ok := p.PlanGroup([]*order.Order{o, mk(net, 2, net.Node(1, 0), net.Node(2, 0), 0, 3.0)}, 0, 4)
	if !ok {
		t.Fatal("plan failed")
	}
	seen := map[int]bool{}
	for _, s := range plan.Stops {
		if s.Kind == order.DropoffStop && !seen[s.OrderID] {
			t.Fatalf("dropoff before pickup for order %d", s.OrderID)
		}
		if s.Kind == order.PickupStop {
			seen[s.OrderID] = true
		}
	}
}

func TestDeadlineConstraintRejects(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	// Tight deadline: tau = 1.0 means zero slack; grouping with a detour
	// order must fail, alone must succeed.
	tight := mk(net, 1, net.Node(0, 0), net.Node(5, 0), 0, 1.0)
	far := mk(net, 2, net.Node(0, 10), net.Node(5, 10), 0, 3.0)
	if _, ok := p.PlanGroup([]*order.Order{tight}, 0, 4); !ok {
		t.Fatal("tight order alone must be feasible")
	}
	if _, ok := p.PlanGroup([]*order.Order{tight, far}, 0, 4); ok {
		t.Fatal("grouping with a far order must violate the tight deadline")
	}
	// Dispatching late also fails: by release+slack the deadline is gone.
	if _, ok := p.PlanGroup([]*order.Order{tight}, 1, 4); ok {
		t.Fatal("late dispatch must violate zero-slack deadline")
	}
}

func TestCapacityConstraint(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	a := mk(net, 1, net.Node(0, 0), net.Node(5, 0), 0, 3.0)
	b := mk(net, 2, net.Node(1, 0), net.Node(6, 0), 0, 3.0)
	a.Riders = 2
	b.Riders = 2
	if _, ok := p.PlanGroup([]*order.Order{a, b}, 0, 4); !ok {
		t.Fatal("4 riders fit capacity 4 on overlapping legs")
	}
	if plan, ok := p.PlanGroup([]*order.Order{a, b}, 0, 3); ok {
		// Capacity 3 cannot hold both at once; the only feasible plans
		// serve them disjointly (drop a before picking b).
		onboard := 0
		maxOnboard := 0
		for _, s := range plan.Stops {
			if s.Kind == order.PickupStop {
				onboard += s.Riders
			} else {
				onboard -= s.Riders
			}
			if onboard > maxOnboard {
				maxOnboard = onboard
			}
		}
		if maxOnboard > 3 {
			t.Fatalf("capacity violated: max onboard %d", maxOnboard)
		}
	}
	single := mk(net, 3, net.Node(0, 0), net.Node(2, 0), 0, 3.0)
	single.Riders = 5
	if _, ok := p.PlanGroup([]*order.Order{single}, 0, 4); ok {
		t.Fatal("an order larger than the vehicle must be infeasible")
	}
}

func TestPlanGroupFromStart(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	o := mk(net, 1, net.Node(5, 5), net.Node(8, 5), 0, 3.0)
	free, ok := p.PlanGroup([]*order.Order{o}, 0, 4)
	if !ok {
		t.Fatal("free plan failed")
	}
	anchored, ok := p.PlanGroupFrom([]*order.Order{o}, 0, 4, net.Node(0, 5))
	if !ok {
		t.Fatal("anchored plan failed")
	}
	if math.Abs((anchored.Cost-free.Cost)-50) > 1e-9 { // 5 blocks to reach pickup
		t.Fatalf("anchored cost %v vs free %v", anchored.Cost, free.Cost)
	}
}

func TestPlanEmptyAndOversizedGroups(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	if _, ok := p.PlanGroup(nil, 0, 4); ok {
		t.Fatal("empty group must fail")
	}
	var big []*order.Order
	for i := 0; i < MaxGroupSize+1; i++ {
		big = append(big, mk(net, i, net.Node(i, 0), net.Node(i+1, 0), 0, 5.0))
	}
	if _, ok := p.PlanGroup(big, 0, 10); ok {
		t.Fatal("oversized group must fail")
	}
}

// TestPlanOptimalityBruteForce cross-checks the DP against exhaustive
// permutation search for random 3-order groups.
func TestPlanOptimalityBruteForce(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		var orders []*order.Order
		for i := 0; i < 3; i++ {
			pu := net.Node(rng.Intn(20), rng.Intn(20))
			do := net.Node(rng.Intn(20), rng.Intn(20))
			if pu == do {
				do = net.Node((int(do)+1)%20, rng.Intn(20))
			}
			orders = append(orders, mk(net, i, pu, do, 0, 3.0))
		}
		dpPlan, dpOK := p.PlanGroup(orders, 0, 4)
		bfCost, bfOK := bruteForceBest(net, orders, 0, 4)
		if dpOK != bfOK {
			t.Fatalf("trial %d: DP ok=%v brute ok=%v", trial, dpOK, bfOK)
		}
		if dpOK && math.Abs(dpPlan.Cost-bfCost) > 1e-6 {
			t.Fatalf("trial %d: DP cost %v, brute force %v", trial, dpPlan.Cost, bfCost)
		}
	}
}

// bruteForceBest enumerates all event permutations.
func bruteForceBest(net roadnet.Network, orders []*order.Order, now float64, capacity int) (float64, bool) {
	k := len(orders)
	ne := 2 * k
	perm := make([]int, ne)
	for i := range perm {
		perm[i] = i
	}
	best := math.Inf(1)
	found := false
	var rec func(depth int)
	used := make([]bool, ne)
	seq := make([]int, 0, ne)
	rec = func(depth int) {
		if depth == ne {
			cost, ok := evalSeq(net, orders, seq, now, capacity)
			if ok && cost < best {
				best = cost
				found = true
			}
			return
		}
		for e := 0; e < ne; e++ {
			if used[e] {
				continue
			}
			if e%2 == 1 && !used[e-1] {
				continue
			}
			used[e] = true
			seq = append(seq, e)
			rec(depth + 1)
			seq = seq[:len(seq)-1]
			used[e] = false
		}
	}
	rec(0)
	return best, found
}

func evalSeq(net roadnet.Network, orders []*order.Order, seq []int, now float64, capacity int) (float64, bool) {
	var t float64
	onboard := 0
	var cur geo.NodeID = geo.InvalidNode
	for _, e := range seq {
		o := orders[e/2]
		node := o.Pickup
		if e%2 == 1 {
			node = o.Dropoff
		}
		if cur != geo.InvalidNode {
			t += net.Cost(cur, node)
		}
		cur = node
		if e%2 == 0 {
			onboard += o.Riders
			if onboard > capacity {
				return 0, false
			}
		} else {
			onboard -= o.Riders
			if now+t > o.Deadline {
				return 0, false
			}
		}
	}
	return t, true
}

// TestPlanFeasibilityProperty: any plan the DP returns satisfies all three
// constraints when replayed step by step.
func TestPlanFeasibilityProperty(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	f := func(seed int64, kRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + int(kRaw)%4
		var orders []*order.Order
		for i := 0; i < k; i++ {
			pu := net.Node(rng.Intn(20), rng.Intn(20))
			do := net.Node(rng.Intn(20), rng.Intn(20))
			if pu == do {
				continue
			}
			o := mk(net, i, pu, do, float64(rng.Intn(60)), 1.5+rng.Float64())
			o.Riders = 1 + rng.Intn(2)
			orders = append(orders, o)
		}
		if len(orders) == 0 {
			return true
		}
		now := 60.0
		plan, ok := p.PlanGroup(orders, now, 4)
		if !ok {
			return true // infeasible is always an acceptable answer
		}
		return replayFeasible(net, orders, plan, now, 4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func replayFeasible(net roadnet.Network, orders []*order.Order, plan *order.RoutePlan, now float64, capacity int) bool {
	byID := map[int]*order.Order{}
	for _, o := range orders {
		byID[o.ID] = o
	}
	picked := map[int]bool{}
	onboard := 0
	var t float64
	for i, s := range plan.Stops {
		if i > 0 {
			t += net.Cost(plan.Stops[i-1].Node, s.Node)
		}
		if math.Abs(t-plan.Arrive[i]) > 1e-6 {
			return false // arrival bookkeeping broken
		}
		o := byID[s.OrderID]
		if o == nil {
			return false
		}
		if s.Kind == order.PickupStop {
			if s.Node != o.Pickup {
				return false
			}
			picked[o.ID] = true
			onboard += o.Riders
			if onboard > capacity {
				return false
			}
		} else {
			if s.Node != o.Dropoff || !picked[o.ID] {
				return false
			}
			onboard -= o.Riders
			if now+t > o.Deadline+1e-9 {
				return false
			}
		}
	}
	return onboard == 0
}

func BenchmarkPlanGroup2(b *testing.B) { benchPlan(b, 2) }
func BenchmarkPlanGroup3(b *testing.B) { benchPlan(b, 3) }
func BenchmarkPlanGroup4(b *testing.B) { benchPlan(b, 4) }
func BenchmarkPlanGroup5(b *testing.B) { benchPlan(b, 5) }

func benchPlan(b *testing.B, k int) {
	net := testCity()
	p := NewPlanner(net)
	rng := rand.New(rand.NewSource(1))
	var groups [][]*order.Order
	for g := 0; g < 64; g++ {
		var orders []*order.Order
		for i := 0; i < k; i++ {
			pu := net.Node(rng.Intn(20), rng.Intn(20))
			do := net.Node(rng.Intn(20), rng.Intn(20))
			orders = append(orders, mk(net, i, pu, do, 0, 2.5))
		}
		groups = append(groups, orders)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.PlanGroup(groups[i%len(groups)], 0, 5)
	}
}

// TestPlanGroupCostLegsAllocations holds the shareability graph's hot path to
// zero allocations in steady state for every group size the DP admits, over
// warm pair blocks: once with deadlines so slack that every valid mask joins
// the kernel's worklist, once with randomGroup's mostly binding ones.
func TestPlanGroupCostLegsAllocations(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	store := NewLegStore(net)
	rng := rand.New(rand.NewSource(3))
	svc := make([]float64, MaxGroupSize)
	for k := 1; k <= MaxGroupSize; k++ {
		slack := randomGroup(net, rng, 20, k)
		for _, o := range slack {
			o.Deadline = 1e6
		}
		for _, arm := range []struct {
			name   string
			orders []*order.Order
		}{{"slack", slack}, {"random", randomGroup(net, rng, 20, k)}} {
			blocks := slotBlocks(store, uint32(k), arm.orders, 0)
			if n := testing.AllocsPerRun(100, func() {
				p.PlanGroupCostLegs(arm.orders, 0, MaxGroupSize, blocks, svc)
			}); n != 0 {
				t.Errorf("k=%d %s: PlanGroupCostLegs allocates %v times per call, want 0", k, arm.name, n)
			}
		}
	}
}

// TestPlanGroupAllocations pins the materializing paths: a found plan is one
// allocation at every group size up to four (the plan and its stop and
// arrival arrays share it), PlanGroupInto into the caller's plan allocates
// nothing, and an infeasible group allocates nothing either.
func TestPlanGroupAllocations(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	rng := rand.New(rand.NewSource(5))
	for k := 1; k <= 4; k++ {
		orders := randomGroup(net, rng, 20, k)
		for _, o := range orders {
			o.Deadline = 1e6
		}
		start := orders[0].Dropoff
		if n := testing.AllocsPerRun(100, func() { p.PlanGroup(orders, 0, MaxGroupSize) }); n != 1 {
			t.Errorf("k=%d: PlanGroup allocates %v times, want 1", k, n)
		}
		if n := testing.AllocsPerRun(100, func() { p.PlanGroupFrom(orders, 0, MaxGroupSize, start) }); n != 1 {
			t.Errorf("k=%d: PlanGroupFrom allocates %v times, want 1", k, n)
		}
		into := order.NewRoutePlan(k)
		if n := testing.AllocsPerRun(100, func() {
			if !p.PlanGroupInto(into, orders, 0, MaxGroupSize, nil) {
				t.Fatal("slack group infeasible; test is vacuous")
			}
		}); n != 0 {
			t.Errorf("k=%d: PlanGroupInto allocates %v times, want 0", k, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, ok := p.PlanGroup(orders, 2e6, MaxGroupSize); ok {
				t.Fatal("group feasible past every deadline; test is vacuous")
			}
		}); n != 0 {
			t.Errorf("k=%d: an infeasible PlanGroup allocates %v times, want 0", k, n)
		}
	}
}
