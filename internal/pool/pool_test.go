package pool

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"watter/internal/geo"
	"watter/internal/gridindex"
	"watter/internal/order"
	"watter/internal/roadnet"
	"watter/internal/route"
)

func testPool(radius int) (*Pool, *roadnet.GridCity, *route.Planner) {
	net := roadnet.NewGridCity(20, 20, 100, 10)
	planner := route.NewPlanner(net)
	ix := gridindex.New(net, 10)
	opt := DefaultOptions()
	opt.CandidateRadius = radius
	return New(planner, ix, opt), net, planner
}

func mk(net roadnet.Network, id int, pickup, dropoff geo.NodeID, release, tau float64) *order.Order {
	direct := net.Cost(pickup, dropoff)
	return &order.Order{
		ID: id, Pickup: pickup, Dropoff: dropoff, Riders: 1,
		Release: release, Deadline: release + tau*direct,
		WaitLimit: 0.8 * direct, DirectCost: direct,
	}
}

func TestInsertCreatesEdges(t *testing.T) {
	p, net, _ := testPool(-1)
	a := mk(net, 1, net.Node(0, 0), net.Node(8, 0), 0, 2.0)
	b := mk(net, 2, net.Node(1, 0), net.Node(9, 0), 0, 2.0)
	far := mk(net, 3, net.Node(0, 19), net.Node(19, 19), 0, 1.05)

	if added := p.Insert(a, 0); added != 0 {
		t.Fatalf("first insert added %d edges", added)
	}
	if added := p.Insert(b, 0); added != 1 {
		t.Fatalf("corridor pair added %d edges, want 1", added)
	}
	if added := p.Insert(far, 0); added != 0 {
		t.Fatalf("far tight order added %d edges, want 0", added)
	}
	if p.Len() != 3 {
		t.Fatalf("len = %d", p.Len())
	}
	if p.degree(1) != 1 || p.degree(2) != 1 || p.degree(3) != 0 {
		t.Fatalf("degrees = %d,%d,%d", p.degree(1), p.degree(2), p.degree(3))
	}
	if _, ok := p.edgeExpiry(1, 2); !ok {
		t.Fatal("edge 1-2 missing")
	}
}

func TestInsertDuplicateIgnored(t *testing.T) {
	p, net, _ := testPool(-1)
	a := mk(net, 1, net.Node(0, 0), net.Node(5, 0), 0, 2.0)
	p.Insert(a, 0)
	if added := p.Insert(a, 0); added != 0 || p.Len() != 1 {
		t.Fatalf("duplicate insert: added=%d len=%d", added, p.Len())
	}
}

func TestBestGroupPrefersSharing(t *testing.T) {
	p, net, _ := testPool(-1)
	a := mk(net, 1, net.Node(0, 0), net.Node(8, 0), 0, 2.0)
	b := mk(net, 2, net.Node(1, 0), net.Node(9, 0), 0, 2.0)
	p.Insert(a, 0)
	if _, _, ok := p.BestGroup(1); ok {
		t.Fatal("a lone order must have no shared best group")
	}
	p.Insert(b, 0)
	g, exp, ok := p.BestGroup(1)
	if !ok {
		t.Fatal("best group missing after pair insert")
	}
	if g.Size() != 2 {
		t.Fatalf("best group size %d, want the shared pair", g.Size())
	}
	if exp < 0 {
		t.Fatalf("expiry %v in the past", exp)
	}
	// The pair group still exists as an edge for later rounds.
	if p.degree(1) != 1 {
		t.Fatal("edge lost")
	}
}

func TestBestGroupSharedWhenDetourFree(t *testing.T) {
	p, net, _ := testPool(-1)
	// Identical itineraries: sharing is free (zero detour for both), so
	// the 2-group ties the singletons at 0 average extra; pool must keep
	// the singleton due to strict improvement, but the edge must exist and
	// the pair plan must cost the same as one trip.
	a := mk(net, 1, net.Node(0, 0), net.Node(8, 0), 0, 2.0)
	b := mk(net, 2, net.Node(0, 0), net.Node(8, 0), 0, 2.0)
	p.Insert(a, 0)
	p.Insert(b, 0)
	if p.degree(1) != 1 {
		t.Fatal("identical orders must be shareable")
	}
	plan, ok := route.NewPlanner(net).PlanGroup([]*order.Order{a, b}, 0, 4)
	if !ok || math.Abs(plan.Cost-a.DirectCost) > 1e-9 {
		t.Fatalf("pair plan cost %v, want %v", plan.Cost, a.DirectCost)
	}
}

func TestRemoveCleansEdgesAndBestGroups(t *testing.T) {
	p, net, _ := testPool(-1)
	a := mk(net, 1, net.Node(0, 0), net.Node(8, 0), 10, 2.0)
	b := mk(net, 2, net.Node(1, 0), net.Node(9, 0), 0, 2.0)
	p.Insert(b, 0)
	p.Insert(a, 10)
	// At now=10, b has waited 10s; grouping with a may now beat b's
	// singleton (response time is sunk either way). Whatever the best is,
	// removing a must leave b consistent.
	p.Remove(1, 20)
	if p.Contains(1) {
		t.Fatal("removed order still present")
	}
	if p.degree(2) != 0 {
		t.Fatal("stale edge to removed order")
	}
	if g, _, ok := p.BestGroup(2); ok {
		t.Fatalf("no shared partner left, but best group = %+v", g)
	}
}

func TestRemoveGroup(t *testing.T) {
	p, net, _ := testPool(-1)
	a := mk(net, 1, net.Node(0, 0), net.Node(8, 0), 0, 2.0)
	b := mk(net, 2, net.Node(1, 0), net.Node(9, 0), 0, 2.0)
	c := mk(net, 3, net.Node(2, 0), net.Node(9, 1), 0, 2.0)
	p.Insert(a, 0)
	p.Insert(b, 0)
	p.Insert(c, 0)
	g := &order.Group{Orders: []*order.Order{a, b}}
	p.RemoveGroup(g, 0)
	if p.Len() != 1 || !p.Contains(3) {
		t.Fatalf("len=%d after group removal", p.Len())
	}
}

func TestEdgeExpiryEq3(t *testing.T) {
	p, net, planner := testPool(-1)
	a := mk(net, 1, net.Node(0, 0), net.Node(8, 0), 0, 2.0)
	b := mk(net, 2, net.Node(1, 0), net.Node(9, 0), 0, 2.0)
	p.Insert(a, 0)
	p.Insert(b, 0)
	exp, ok := p.edgeExpiry(1, 2)
	if !ok {
		t.Fatal("edge missing")
	}
	plan, _ := planner.PlanGroup([]*order.Order{a, b}, 0, 4)
	want := math.Inf(1)
	for _, o := range []*order.Order{a, b} {
		st, _ := plan.ServiceTime(o.ID)
		if e := o.Deadline - st; e < want {
			want = e
		}
	}
	if math.Abs(exp-want) > 1e-9 {
		t.Fatalf("edge expiry %v, want %v (Eq. 3)", exp, want)
	}
}

func TestExpireEdgesDropsStalePairs(t *testing.T) {
	p, net, _ := testPool(-1)
	a := mk(net, 1, net.Node(0, 0), net.Node(8, 0), 0, 1.5)
	b := mk(net, 2, net.Node(1, 0), net.Node(9, 0), 0, 1.5)
	p.Insert(a, 0)
	p.Insert(b, 0)
	exp, ok := p.edgeExpiry(1, 2)
	if !ok {
		t.Fatal("edge missing")
	}
	expired := p.ExpireEdges(exp + 1)
	if _, still := p.edgeExpiry(1, 2); still {
		t.Fatal("expired edge survived")
	}
	// Orders themselves may also be past their own deadlines by then.
	for _, id := range expired {
		if !p.Order(id).Expired(exp + 1) {
			t.Fatalf("order %d reported expired but is not", id)
		}
	}
}

func TestExpireReportsUnservableOrders(t *testing.T) {
	p, net, _ := testPool(-1)
	a := mk(net, 1, net.Node(0, 0), net.Node(8, 0), 0, 1.2) // slack 16s
	p.Insert(a, 0)
	if got := p.ExpireEdges(10); len(got) != 0 {
		t.Fatalf("order expired too early: %v", got)
	}
	got := p.ExpireEdges(17)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("expired = %v, want [1]", got)
	}
}

func TestCliqueEnumerationFindsTriple(t *testing.T) {
	p, net, _ := testPool(-1)
	// Three nearly identical itineraries released earlier; by now their
	// response times are sunk, so the 3-group (tiny detours) has the best
	// average extra time at a later decision point. We verify a 3-clique
	// group is discoverable as *some* order's best.
	now := 0.0
	a := mk(net, 1, net.Node(0, 0), net.Node(10, 0), now, 2.0)
	b := mk(net, 2, net.Node(0, 0), net.Node(10, 0), now, 2.0)
	c := mk(net, 3, net.Node(0, 0), net.Node(10, 0), now, 2.0)
	p.Insert(a, now)
	p.Insert(b, now)
	p.Insert(c, now)
	if p.degree(1) != 2 || p.degree(2) != 2 || p.degree(3) != 2 {
		t.Fatalf("triangle degrees = %d,%d,%d", p.degree(1), p.degree(2), p.degree(3))
	}
	// Identical itineraries: the 3-group plan must cost one direct trip.
	planner := route.NewPlanner(net)
	plan, ok := planner.PlanGroup([]*order.Order{a, b, c}, now, 4)
	if !ok || math.Abs(plan.Cost-a.DirectCost) > 1e-9 {
		t.Fatalf("triple plan cost = %v", plan.Cost)
	}
}

func TestCapacityBoundsCliqueSize(t *testing.T) {
	net := roadnet.NewGridCity(20, 20, 100, 10)
	planner := route.NewPlanner(net)
	ix := gridindex.New(net, 10)
	opt := DefaultOptions()
	opt.Capacity = 2
	opt.CandidateRadius = -1
	p := New(planner, ix, opt)
	for i := 1; i <= 4; i++ {
		p.Insert(mk(net, i, net.Node(0, 0), net.Node(10, 0), 0, 3.0), 0)
	}
	for _, id := range p.OrderIDs() {
		g, _, ok := p.BestGroup(id)
		if !ok {
			t.Fatalf("order %d has no best group", id)
		}
		if g.Riders() > 2 {
			t.Fatalf("best group exceeds capacity: %d riders", g.Riders())
		}
	}
}

func TestSpatialPrefilterStillFindsNearbyPairs(t *testing.T) {
	p, net, _ := testPool(2)
	a := mk(net, 1, net.Node(5, 5), net.Node(12, 5), 0, 2.0)
	b := mk(net, 2, net.Node(6, 5), net.Node(13, 5), 0, 2.0)
	p.Insert(a, 0)
	if added := p.Insert(b, 0); added != 1 {
		t.Fatalf("nearby pair not found with prefilter: %d edges", added)
	}
}

func TestDemandDistributions(t *testing.T) {
	p, net, _ := testPool(-1)
	p.Insert(mk(net, 1, net.Node(0, 0), net.Node(19, 19), 0, 2.0), 0)
	p.Insert(mk(net, 2, net.Node(0, 0), net.Node(19, 19), 0, 2.0), 0)
	pu, do := p.ix.NewDistribution(), p.ix.NewDistribution()
	p.FillDemand(pu, do)
	if math.Abs(pu[0]-1) > 1e-12 {
		t.Fatalf("pickup demand = %v", pu[0])
	}
	if math.Abs(do[len(do)-1]-1) > 1e-12 {
		t.Fatalf("dropoff demand tail = %v", do[len(do)-1])
	}
	p.Remove(1, 0)
	p.Remove(2, 0)
	p.FillDemand(pu, do)
	for _, v := range pu {
		if v != 0 {
			t.Fatalf("demand not cleaned: %v", pu)
		}
	}
}

// TestPoolInvariantsProperty drives random insert/remove/expire traffic and
// checks structural invariants after every step: symmetric adjacency, no
// self-edges, best groups only reference pooled members, best-group plans
// stay deadline-feasible at their recorded expiry.
func TestPoolInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, net, _ := testPool(-1)
		now := 0.0
		nextID := 1
		live := map[int]bool{}
		for step := 0; step < 60; step++ {
			now += rng.Float64() * 20
			switch op := rng.Intn(4); {
			case op <= 1: // insert
				pu := net.Node(rng.Intn(20), rng.Intn(20))
				do := net.Node(rng.Intn(20), rng.Intn(20))
				if pu == do {
					continue
				}
				o := mk(net, nextID, pu, do, now, 1.3+rng.Float64())
				p.Insert(o, now)
				live[nextID] = true
				nextID++
			case op == 2: // remove random
				if len(live) == 0 {
					continue
				}
				for id := range live {
					p.Remove(id, now)
					delete(live, id)
					break
				}
			default: // expire
				for _, id := range p.ExpireEdges(now) {
					p.Remove(id, now)
					delete(live, id)
				}
			}
			if !checkInvariants(t, p, now) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func checkInvariants(t *testing.T, p *Pool, now float64) bool {
	t.Helper()
	for _, id := range p.OrderIDs() {
		s, _ := p.slotOf(id)
		n := &p.nodes[s]
		for _, e := range n.adj {
			if e.id == id {
				t.Errorf("self edge on %d", id)
				return false
			}
			pn := &p.nodes[e.slot]
			if pn.o == nil || pn.o.ID != e.id {
				t.Errorf("edge %d->%d dangles", id, e.id)
				return false
			}
			if _, ok := p.edgeExpiry(e.id, id); !ok {
				t.Errorf("asymmetric edge %d->%d", id, e.id)
				return false
			}
		}
		if n.best != nil {
			for _, m := range n.best.Orders {
				if !p.Contains(m.ID) {
					t.Errorf("best group of %d references evicted order %d", id, m.ID)
					return false
				}
			}
			if !groupContains(n.best, id) {
				t.Errorf("best group of %d does not contain it", id)
				return false
			}
			// τg must really be the deadline-feasibility horizon.
			for _, m := range n.best.Orders {
				st, ok := n.best.Plan.ServiceTime(m.ID)
				if !ok {
					t.Errorf("plan of best group of %d misses member %d", id, m.ID)
					return false
				}
				if n.bestExpiry+st > m.Deadline+1e-6 {
					t.Errorf("bestExpiry %v breaks member %d deadline", n.bestExpiry, m.ID)
					return false
				}
			}
		}
	}
	return true
}

func BenchmarkPoolInsert(b *testing.B) {
	net := roadnet.NewGridCity(40, 40, 150, 8)
	planner := route.NewPlanner(net)
	ix := gridindex.New(net, 10)
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	var p *Pool
	for i := 0; i < b.N; i++ {
		if i%512 == 0 {
			p = New(planner, ix, DefaultOptions())
		}
		pu := net.Node(rng.Intn(40), rng.Intn(40))
		do := net.Node(rng.Intn(40), rng.Intn(40))
		o := mk(net, i, pu, do, float64(i), 1.6)
		p.Insert(o, float64(i))
	}
}

// degree returns the number of shareability edges incident to the order.
func (p *Pool) degree(id int) int {
	if s, ok := p.slotOf(id); ok {
		return len(p.nodes[s].adj)
	}
	return 0
}

// edgeExpiry returns the τe of the edge between two orders, if present.
func (p *Pool) edgeExpiry(a, b int) (float64, bool) {
	if s, ok := p.slotOf(a); ok {
		adj := p.nodes[s].adj
		if i, ok := searchEdge(adj, b); ok {
			return adj[i].expiry, true
		}
	}
	return 0, false
}

// edges reports the number of shareability edges in the pool.
func (p *Pool) edges() int {
	n := 0
	for _, r := range p.live {
		n += len(p.nodes[r.slot].adj)
	}
	return n / 2
}

// cachedPlans reports the number of live plan-cache entries.
func (p *Pool) cachedPlans() int {
	if p.cache == nil {
		return 0
	}
	return len(p.cache.entries)
}

// legBlocks reports the number of live per-pair leg blocks.
func (p *Pool) legBlocks() int {
	if p.legs == nil {
		return 0
	}
	return p.legs.Len()
}

// lookup runs planEntryFor on the canonical view of pooled orders.
func (p *Pool) lookup(now float64, ids ...int) *planEntry {
	var slots [route.MaxGroupSize]int32
	for i, id := range ids {
		slots[i], _ = p.slotOf(id)
	}
	canon, cs := p.canonical(slots[:len(ids)]...)
	return p.planEntryFor(canon, cs, now, false)
}

// mustSlot returns the slot of a pooled order.
func (p *Pool) mustSlot(t testing.TB, id int) int32 {
	t.Helper()
	s, ok := p.slotOf(id)
	if !ok {
		t.Fatalf("order %d is not pooled", id)
	}
	return s
}

// TestSlotsRecycle: insert/remove churn far past the pool's high-water mark
// keeps the slot array at the peak pool size, and a steady-state
// Insert+Remove cycle allocates nothing beyond the groups it materializes —
// no plan entry (evicted ones are recycled), adjacency, live list, cell
// bucket, eviction list, leg block or refresh scratch grows per cycle.
func TestSlotsRecycle(t *testing.T) {
	p, net, _ := testPool(-1)
	corridor := func(id int) *order.Order {
		x := id % 3
		return mk(net, id, net.Node(x, 0), net.Node(10+x, 0), 0, 2.0)
	}
	const peak = 6
	id := 0
	for ; id < peak; id++ {
		p.Insert(corridor(id), 0)
	}
	for id2 := 0; id2 < peak; id2++ {
		p.Remove(id2, 0)
	}
	for ; id < 40*peak; id++ {
		if p.Len() == peak {
			p.Remove(p.live[0].id, 0)
		}
		p.Insert(corridor(id), 0)
	}
	if len(p.nodes) != peak || len(p.free)+len(p.live) != peak {
		t.Fatalf("after churn: %d slots (%d free, %d live), want the peak %d", len(p.nodes), len(p.free), len(p.live), peak)
	}
	if p.edges() == 0 || p.legBlocks() != p.edges() {
		t.Fatalf("churned pool holds %d edges and %d leg blocks", p.edges(), p.legBlocks())
	}
	if raceEnabled {
		return // allocation counts are not meaningful under the race detector
	}

	// An order that shares with nobody: its cycle plans nothing and keeps
	// nothing, so it allocates nothing.
	far := mk(net, 1000, net.Node(0, 19), net.Node(10, 19), 0, 1.1)
	if n := testing.AllocsPerRun(100, func() {
		p.Insert(far, 0)
		p.Remove(far.ID, 0)
	}); n != 0 {
		t.Errorf("an edgeless insert+remove cycle allocates %v times, want 0", n)
	}

	// An order that shares with every resident: each cycle creates its
	// pair and clique entries, all of them spares the previous cycle's
	// evictions left, and materializes the groups they win, one allocation
	// each.
	near := corridor(1001)
	const runs = 100
	before := p.CacheStats()
	n := testing.AllocsPerRun(runs, func() {
		p.Insert(near, 0)
		p.Remove(near.ID, 0)
	})
	after := p.CacheStats()
	entries := float64(after.Misses-before.Misses) / (runs + 1)
	groups := float64(after.PlansMaterialized-before.PlansMaterialized) / (runs + 1)
	if entries == 0 || groups == 0 {
		t.Fatal("the shared cycle created no plan entries or groups; test is vacuous")
	}
	if n > groups {
		t.Errorf("an insert+remove cycle allocates %v times, want at most one per group it materializes (%v)", n, groups)
	}
}
