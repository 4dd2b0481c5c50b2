package pool

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"watter/internal/geo"
	"watter/internal/gridindex"
	"watter/internal/order"
	"watter/internal/roadnet"
	"watter/internal/route"
)

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// cacheReferences reports whether any cached key has the order as a member.
func cacheReferences(p *Pool, id int) bool {
	if p.cache == nil {
		return false
	}
	for _, rec := range p.cache.recs {
		if rec.ent != nil && slices.Contains(rec.key.ids[:rec.key.n], id) {
			return true
		}
	}
	return false
}

// forget evicts one cached key through its eviction record, as the
// departure of a member would.
func (p *Pool) forget(t testing.TB, key planKey) {
	t.Helper()
	for _, r := range p.nodes[p.mustSlot(t, key.ids[0])].plans {
		if rec := p.cache.recs[r.rec]; rec.gen == r.gen && rec.key == key {
			p.cache.evict(r)
			return
		}
	}
	t.Fatalf("key %v is not cached", key)
}

func TestPlanCacheWarmsAndHits(t *testing.T) {
	p, net, _ := testPool(-1)
	a := mk(net, 1, net.Node(0, 0), net.Node(10, 0), 0, 2.0)
	b := mk(net, 2, net.Node(1, 0), net.Node(11, 0), 0, 2.0)
	c := mk(net, 3, net.Node(2, 0), net.Node(12, 0), 0, 2.0)
	p.Insert(a, 0)
	p.Insert(b, 0)
	if p.cachedPlans() == 0 || p.legBlocks() == 0 {
		t.Fatalf("pair insert left cache cold: plans=%d blocks=%d", p.cachedPlans(), p.legBlocks())
	}
	// Inserting c re-enumerates cliques containing the a-b pair: the pair
	// entries planned at edge creation must be served from cache.
	before := p.CacheStats()
	p.Insert(c, 0)
	after := p.CacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("no cache hits across inserts: %+v -> %+v", before, after)
	}
	// A tick-time refresh of unchanged nodes must be almost all hits.
	preMiss := p.CacheStats().Misses
	p.ExpireEdges(5)
	if p.CacheStats().Misses != preMiss {
		t.Fatalf("refresh at t=5 re-planned cached cliques: %+v", p.CacheStats())
	}
}

func TestPlanCacheEvictionOnRemove(t *testing.T) {
	p, net, _ := testPool(-1)
	for i := 1; i <= 4; i++ {
		p.Insert(mk(net, i, net.Node(i-1, 0), net.Node(10+i, 0), 0, 2.0), 0)
	}
	if !cacheReferences(p, 2) {
		t.Fatal("no cache entries reference order 2; test is vacuous")
	}
	p.Remove(2, 1)
	if cacheReferences(p, 2) {
		t.Fatal("cache entries referencing removed order 2 survived")
	}
	if p.CacheStats().Evicted == 0 {
		t.Fatal("eviction counter not advanced")
	}
	if p.legBlocks() != p.edges() {
		t.Fatalf("%d leg blocks live for %d edges after removing order 2", p.legBlocks(), p.edges())
	}
}

func TestPlanCacheEvictionOnRemoveGroup(t *testing.T) {
	p, net, _ := testPool(-1)
	var orders []*order.Order
	for i := 1; i <= 3; i++ {
		o := mk(net, i, net.Node(i-1, 0), net.Node(10+i, 0), 0, 2.0)
		orders = append(orders, o)
		p.Insert(o, 0)
	}
	g, _, ok := p.BestGroup(1)
	if !ok {
		t.Fatal("no best group to dispatch")
	}
	p.RemoveGroup(g, 1)
	for _, o := range orders {
		if groupHas(g, o.ID) && cacheReferences(p, o.ID) {
			t.Fatalf("cache entries referencing dispatched order %d survived", o.ID)
		}
	}
}

// TestPlanCacheExpiryRenewal drives the clock past a cached entry's τg and
// checks the lookup replans in place instead of serving the stale route —
// and that a renewal coming back infeasible turns the entry permanently
// negative.
func TestPlanCacheExpiryRenewal(t *testing.T) {
	p, net, _ := testPool(-1)
	a := mk(net, 1, net.Node(0, 0), net.Node(10, 0), 0, 2.0)
	b := mk(net, 2, net.Node(1, 0), net.Node(11, 0), 0, 2.0)
	p.Insert(a, 0)
	p.Insert(b, 0)
	ent := p.lookup(0, 1, 2)
	if !ent.feasible {
		t.Fatal("corridor pair must be feasible")
	}
	st := p.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("lookup after insert missed: %+v", st)
	}
	// Within τg the entry is served verbatim.
	if again := p.lookup(ent.expiry, 1, 2); again != ent {
		t.Fatal("lookup within τg did not return the cached entry")
	}
	// Past τg the entry must be replanned at the current clock. For this
	// corridor every pair route drops b at the same offset, so the replan
	// comes back infeasible and the entry turns negative.
	st = p.CacheStats()
	after := p.lookup(ent.expiry+1, 1, 2)
	if p.CacheStats().Renewed != st.Renewed+1 {
		t.Fatalf("lookup past τg did not renew: %+v", p.CacheStats())
	}
	if after != ent {
		t.Fatal("renewal must replace the entry in place")
	}
	if after.feasible && after.expiry < ent.expiry+1 {
		t.Fatalf("renewed entry still stale: τg=%v at now=%v", after.expiry, ent.expiry+1)
	}
	if after.feasible {
		t.Fatalf("corridor pair should be infeasible past τg (svc is route-invariant here), got τg=%v", after.expiry)
	}
	// Once negative, the entry is permanent: later lookups are negative
	// hits, never replans.
	st = p.CacheStats()
	p.lookup(ent.expiry+50, 1, 2)
	got := p.CacheStats()
	if got.NegativeHits != st.NegativeHits+1 || got.Renewed != st.Renewed || got.Misses != st.Misses {
		t.Fatalf("negative entry not served as permanent: %+v -> %+v", st, got)
	}
}

// negativeTriangle inserts a triangle whose pairs are all feasible but
// whose 3-clique is not, and returns its orders. Geometry (20x20 grid, 10 s
// per cell): a and b are parallel generous corridors at y=0 and y=4; c runs
// between them at y=2 with a tight deadline. Each pair shares fine; any
// route over all three delays c's dropoff past its deadline.
func negativeTriangle(t *testing.T, p *Pool, net *roadnet.GridCity) []*order.Order {
	t.Helper()
	a := mk(net, 1, net.Node(0, 0), net.Node(10, 0), 0, 2.0)
	b := mk(net, 2, net.Node(0, 4), net.Node(10, 4), 0, 2.0)
	c := mk(net, 3, net.Node(0, 2), net.Node(10, 2), 0, 1.3)
	p.Insert(a, 0)
	p.Insert(b, 0)
	p.Insert(c, 0)
	if p.degree(1) != 2 || p.degree(2) != 2 || p.degree(3) != 2 {
		t.Fatalf("triangle not formed: degrees %d/%d/%d", p.degree(1), p.degree(2), p.degree(3))
	}
	// Confirm the triple really is infeasible for the planner.
	if _, ok := route.NewPlanner(net).PlanGroup([]*order.Order{a, b, c}, 0, 4); ok {
		t.Fatal("triple unexpectedly feasible; negative-cache test is vacuous")
	}
	return []*order.Order{a, b, c}
}

// TestPlanCacheNegativePermanence: the infeasible triple of a triangle
// whose pairs are feasible must become a permanent negative key, mapped to
// the cache's sentinel and served without replanning.
func TestPlanCacheNegativePermanence(t *testing.T) {
	p, net, _ := testPool(-1)
	key := memberKey(negativeTriangle(t, p, net))
	if ent := p.cache.cached(key); ent != &p.cache.negative {
		t.Fatalf("the infeasible triple is not cached as a negative key (cached %v)", ent != nil)
	}
	// Later refreshes that re-enumerate the triangle serve the negative
	// entry without replanning, at any later clock.
	st := p.CacheStats()
	p.refreshBest(p.mustSlot(t, 1), 2)
	p.refreshBest(p.mustSlot(t, 2), 5)
	after := p.CacheStats()
	if after.NegativeHits <= st.NegativeHits {
		t.Fatalf("negative entry not reused: %+v -> %+v", st, after)
	}
	if after.Misses != st.Misses {
		t.Fatalf("negative clique was replanned: %+v -> %+v", st, after)
	}
	if ent := p.cache.cached(key); ent == nil || ent.feasible {
		t.Fatal("negative key vanished while all members remain pooled")
	}
	// Removing a member evicts the key and frees its record.
	st = p.CacheStats()
	p.Remove(3, 6)
	if p.cache.cached(key) != nil {
		t.Fatal("triple key survived member removal")
	}
	if got := p.CacheStats(); got.Evicted <= st.Evicted || len(p.cache.free) == 0 {
		t.Fatalf("removal evicted nothing: %+v -> %+v, %d free records", st, got, len(p.cache.free))
	}
}

// TestPlanCacheAllocations pins what a probe of the cache costs the
// allocator: a positive miss is free once an eviction left a spare entry
// (members, service times and key are inline; the record and the map slot
// are the ones the eviction freed), a negative miss is free — it planned
// into the probe entry and its key maps to the sentinel — a hit is free,
// and so is a pair test that fails: the probe entry is reused and the leg
// block it filled is recycled by the next fill. A refresh that changes
// bests is free too: an order adopts a best group by copying the winning
// entry into its slot, and no route is planned until a dispatch asks.
func TestPlanCacheAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p, net, _ := testPool(-1)
	a := mk(net, 1, net.Node(0, 0), net.Node(10, 0), 0, 2.0)
	b := mk(net, 2, net.Node(1, 0), net.Node(11, 0), 0, 2.0)
	c := mk(net, 3, net.Node(2, 0), net.Node(12, 0), 0, 2.0)
	far := mk(net, 4, net.Node(0, 19), net.Node(10, 19), 0, 1.1)
	for _, o := range []*order.Order{a, b, c, far} {
		p.Insert(o, 0)
	}
	if p.degree(far.ID) != 0 {
		t.Fatal("far order unexpectedly shareable; test is vacuous")
	}
	triple := []*order.Order{a, b, c}
	key := memberKey(triple)
	if ent := p.cache.cached(key); ent == nil || !ent.feasible {
		t.Fatal("corridor triple not cached as feasible; test is vacuous")
	}

	before := p.CacheStats()
	if n := testing.AllocsPerRun(100, func() { p.lookup(0, 1, 2, 3) }); n != 0 {
		t.Errorf("a cache hit allocates %v times, want 0", n)
	}
	if got := p.CacheStats(); got.Hits != before.Hits+101 || got.Misses != before.Misses {
		t.Fatalf("hit arm did not hit: %+v -> %+v", before, got)
	}

	before = p.CacheStats()
	if n := testing.AllocsPerRun(100, func() {
		p.forget(t, key)
		p.lookup(0, 1, 2, 3)
	}); n != 0 {
		t.Errorf("a positive cache miss over an evicted entry allocates %v times, want 0", n)
	}
	if got := p.CacheStats(); got.Misses != before.Misses+101 || !p.cache.cached(key).feasible {
		t.Fatalf("positive miss arm did not miss: %+v -> %+v", before, got)
	}

	// Each run clears the three corridor orders' bests; refreshing one
	// adopts the triple for it and, by the improvement rule, for the others.
	slots := []int32{p.mustSlot(t, a.ID), p.mustSlot(t, b.ID), p.mustSlot(t, c.ID)}
	before = p.CacheStats()
	if n := testing.AllocsPerRun(100, func() {
		for _, s := range slots {
			p.nodes[s].best = planEntry{}
		}
		p.refreshBest(slots[0], 0)
		for _, s := range slots {
			if p.nodes[s].best.n == 0 {
				t.Fatal("a refresh left a corridor order without a best group")
			}
		}
	}); n != 0 {
		t.Errorf("a refresh that changes bests allocates %v times, want 0", n)
	}
	if got := p.CacheStats(); got.PlansMaterialized != before.PlansMaterialized || got.Misses != before.Misses {
		t.Fatalf("the refresh arm planned: %+v -> %+v", before, got)
	}

	neg, net2, _ := testPool(-1)
	negKey := memberKey(negativeTriangle(t, neg, net2))
	before = neg.CacheStats()
	if n := testing.AllocsPerRun(100, func() {
		neg.forget(t, negKey)
		neg.lookup(0, 1, 2, 3)
	}); n != 0 {
		t.Errorf("a negative cache miss allocates %v times, want 0", n)
	}
	if got := neg.CacheStats(); got.Misses != before.Misses+101 || neg.cache.cached(negKey) != &neg.cache.negative {
		t.Fatalf("negative miss arm did not miss into the sentinel: %+v -> %+v", before, got)
	}

	sa, sf := p.mustSlot(t, a.ID), p.mustSlot(t, far.ID)
	if ent, _ := p.pairEntryFor(sa, sf, 0); ent.feasible {
		t.Fatal("far pair unexpectedly shareable; test is vacuous")
	}
	before = p.CacheStats()
	if n := testing.AllocsPerRun(100, func() { p.pairEntryFor(sa, sf, 0) }); n != 0 {
		t.Errorf("a failed pair test allocates %v times, want 0", n)
	}
	if got := p.CacheStats(); got != before || p.legBlocks() != 3 {
		t.Fatalf("failed pair tests left a trace: stats %+v -> %+v, %d leg blocks (want the triangle's 3)", before, got, p.legBlocks())
	}
}

// TestCachedPlansBitIdenticalProperty drives random insert/remove/expire
// traffic through two pools — cache on and cache off — in lockstep, and
// after every step checks (1) both pools expose byte-for-byte identical
// best groups, and (2) every cached best plan equals a from-scratch
// PlanGroup of the same canonical member set at the current clock.
func TestCachedPlansBitIdenticalProperty(t *testing.T) {
	f := func(seed int64) bool {
		net := roadnet.NewGridCity(20, 20, 100, 10)
		planner := route.NewPlanner(net)
		fresh := route.NewPlanner(net)
		ix := gridindex.New(net, 10)
		optOn := DefaultOptions()
		optOn.CandidateRadius = -1
		optOff := optOn
		optOff.DisablePlanCache = true
		cached := New(planner, ix, optOn)
		plain := New(route.NewPlanner(net), gridindex.New(net, 10), optOff)

		rng := rand.New(rand.NewSource(seed))
		now := 0.0
		nextID := 1
		live := map[int]bool{}
		for step := 0; step < 50; step++ {
			now += rng.Float64() * 15
			switch op := rng.Intn(4); {
			case op <= 1: // insert
				pu := net.Node(rng.Intn(20), rng.Intn(20))
				do := net.Node(rng.Intn(20), rng.Intn(20))
				if pu == do {
					continue
				}
				o := mk(net, nextID, pu, do, now, 1.3+rng.Float64())
				cached.Insert(o, now)
				plain.Insert(o, now)
				live[nextID] = true
				nextID++
			case op == 2: // remove lowest live id (deterministic)
				id := -1
				for k := range live {
					if id < 0 || k < id {
						id = k
					}
				}
				if id < 0 {
					continue
				}
				cached.Remove(id, now)
				plain.Remove(id, now)
				delete(live, id)
			default: // expire
				e1 := cached.ExpireEdges(now)
				e2 := plain.ExpireEdges(now)
				if len(e1) != len(e2) {
					t.Errorf("expiry diverged: %v vs %v", e1, e2)
					return false
				}
				for i := range e1 {
					if e1[i] != e2[i] {
						t.Errorf("expiry diverged: %v vs %v", e1, e2)
						return false
					}
				}
				for _, id := range e1 {
					cached.Remove(id, now)
					plain.Remove(id, now)
					delete(live, id)
				}
			}
			if !compareBest(t, cached, plain, fresh, now) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// compareBest cross-checks every pooled order's best group between the
// cached and uncached pools, and against a from-scratch plan.
func compareBest(t *testing.T, cached, plain *Pool, fresh *route.Planner, now float64) bool {
	t.Helper()
	ids := cached.OrderIDs()
	pids := plain.OrderIDs()
	if len(ids) != len(pids) {
		t.Errorf("pool contents diverged: %v vs %v", ids, pids)
		return false
	}
	for _, id := range ids {
		gc, ec, okc := cached.BestGroup(id)
		gp, ep, okp := plain.BestGroup(id)
		if okc != okp {
			t.Errorf("order %d: best-group presence diverged (cached %v, plain %v)", id, okc, okp)
			return false
		}
		if !okc {
			continue
		}
		if ec != ep {
			t.Errorf("order %d: τg diverged: %v vs %v", id, ec, ep)
			return false
		}
		ci, pi := gc.IDs(), gp.IDs()
		if len(ci) != len(pi) {
			t.Errorf("order %d: group members diverged: %v vs %v", id, ci, pi)
			return false
		}
		for i := range ci {
			if ci[i] != pi[i] {
				t.Errorf("order %d: group members diverged: %v vs %v", id, ci, pi)
				return false
			}
		}
		if gc.Plan.Cost != gp.Plan.Cost {
			t.Errorf("order %d: plan cost diverged: %v vs %v", id, gc.Plan.Cost, gp.Plan.Cost)
			return false
		}
		for i := range gc.Plan.Stops {
			if gc.Plan.Stops[i] != gp.Plan.Stops[i] || gc.Plan.Arrive[i] != gp.Plan.Arrive[i] {
				t.Errorf("order %d: plans diverged at stop %d", id, i)
				return false
			}
		}
		// The cached plan must also equal a from-scratch plan of the same
		// canonical member set at the current clock: stops, arrivals and
		// cost bit for bit (the now-independence invariant).
		if ec >= now {
			ref, ok := fresh.PlanGroup(gc.Orders, now, cached.opt.Capacity)
			if !ok {
				t.Errorf("order %d: cached-feasible group replans infeasible at now=%v", id, now)
				return false
			}
			if ref.Cost != gc.Plan.Cost || len(ref.Stops) != len(gc.Plan.Stops) {
				t.Errorf("order %d: cached plan cost %v != fresh %v", id, gc.Plan.Cost, ref.Cost)
				return false
			}
			for i := range ref.Stops {
				if ref.Stops[i] != gc.Plan.Stops[i] || ref.Arrive[i] != gc.Plan.Arrive[i] {
					t.Errorf("order %d: cached plan diverged from fresh replan at stop %d", id, i)
					return false
				}
			}
			// And τg recomputed from the fresh plan must match.
			want := math.Inf(1)
			for _, o := range gc.Orders {
				st, _ := ref.ServiceTime(o.ID)
				if e := o.Deadline - st; e < want {
					want = e
				}
			}
			if want != ec {
				t.Errorf("order %d: τg %v != recomputed %v", id, ec, want)
				return false
			}
		}
	}
	return true
}

// TestAvgExtraMatchesGroupProperty pins the agreement refreshBest relies
// on: a candidate's cost-only avgExtra (from the entry's service-time row)
// is compared against the stored best group's AvgExtraTime (from its
// materialized plan), so for one member set the two must be the same
// float64 bit for bit. Random groups of 2–4 orders released close together
// near one corner, planned at a random clock and read at random dispatch
// times up to τg.
func TestAvgExtraMatchesGroupProperty(t *testing.T) {
	var feasible [5]int // by group size
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// The members are never pooled, so the pool plans them without a
		// cache (the cached path reads pair blocks off adjacency).
		net := roadnet.NewGridCity(20, 20, 100, 10)
		opt := DefaultOptions()
		opt.DisablePlanCache = true
		p := New(route.NewPlanner(net), gridindex.New(net, 10), opt)
		k := 2 + rng.Intn(3)
		members := make([]*order.Order, k)
		release := 0.0
		for i := range members {
			pu := net.Node(rng.Intn(4), rng.Intn(4))
			do := net.Node(8+rng.Intn(6), 8+rng.Intn(6))
			release += rng.Float64() * 20
			members[i] = mk(net, 1+rng.Intn(1000)*k+i, pu, do, release, 1.5+2*rng.Float64())
		}
		now := release + rng.Float64()*30
		slices.SortFunc(members, func(a, b *order.Order) int { return a.ID - b.ID })
		ent := &planEntry{}
		ent.setMembers(members)
		p.plan(ent, nil, now)
		if !ent.feasible || ent.expiry < now {
			return true
		}
		feasible[k]++
		g := order.NewGroup(k)
		copy(g.Orders, members)
		if !p.planner.PlanGroupInto(g.Plan, g.Orders, now, opt.Capacity, nil) {
			t.Errorf("k=%d: the cost-only DP accepts the group, the materializing one does not", k)
			return false
		}
		for _, at := range []float64{now, now + rng.Float64()*(ent.expiry-now), ent.expiry} {
			got, want := ent.avgExtra(at), g.AvgExtraTime(at)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("k=%d at %v: avgExtra %v (%#x), AvgExtraTime %v (%#x)",
					k, at, got, math.Float64bits(got), want, math.Float64bits(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	for k := 2; k <= 4; k++ {
		if feasible[k] < 50 {
			t.Fatalf("only %d feasible random groups of size %d; the property is barely exercised", feasible[k], k)
		}
	}
}

// TestPrefixPruneOnlyOnExactNetworks runs one dense stream of orders
// through a pool and its DisablePlanCache twin on four networks, comparing
// them after every step (comparePools, checkSlots): the prefix rule must
// decide some 4-cliques on CDC's and XIA's lattices, whose costs are exact,
// and none on NYC's 150/7 s lattice or on a Graph, where dropping a member
// can win a deadline check by an ulp. With the exactness gate dropped the
// last two arms prune and fail.
func TestPrefixPruneOnlyOnExactNetworks(t *testing.T) {
	for _, arm := range []struct {
		name  string
		net   roadnet.Network
		exact bool
	}{
		{"cdc", roadnet.NewGridCity(42, 42, 160, 8), true},
		{"xia", roadnet.NewGridCity(36, 36, 170, 8), true},
		{"nyc", roadnet.NewGridCity(60, 24, 150, 7), false},
		{"graph", roadnet.NewPerturbedGrid(12, 12, 150, 8, 0.3, 1), false},
	} {
		t.Run(arm.name, func(t *testing.T) {
			st := prefixStream(t, arm.net)
			if st.Misses == 0 || st.NegativeHits == 0 {
				t.Fatalf("the stream cached nothing negative: %+v", st)
			}
			t.Logf("%+v", st)
			if (st.PrefixPruned > 0) != arm.exact {
				t.Fatalf("PrefixPruned = %d, want > 0 exactly on exact lattices (%+v)", st.PrefixPruned, st)
			}
		})
	}
}

// prefixStream drives 300 orders with pickups in one 6x6-block window and
// dropoffs nearby through a pool and its cache-free twin, ticking every
// 10 s (ExpireEdges, then the expired orders and the oldest order's best
// group leave), and returns the cached pool's counters.
func prefixStream(t *testing.T, net roadnet.Network) CacheStats {
	t.Helper()
	ix := func() *gridindex.Index { return gridindex.New(net, 10) }
	opt := DefaultOptions()
	cached := New(route.NewPlanner(net), ix(), opt)
	opt.DisablePlanCache = true
	plain := New(route.NewPlanner(net), ix(), opt)

	b := net.Bounds()
	cell := (b.Max.X - b.Min.X) / 23
	node := func(x, y float64) geo.NodeID {
		best, bestD := geo.NodeID(0), math.Inf(1)
		for n := 0; n < net.NumNodes(); n++ {
			c := net.Coord(geo.NodeID(n))
			if d := math.Abs(c.X-x) + math.Abs(c.Y-y); d < bestD {
				best, bestD = geo.NodeID(n), d
			}
		}
		return best
	}
	rng := rand.New(rand.NewSource(1))
	now, tick := 0.0, 10.0
	for id := 1; id <= 300; id++ {
		now += rng.Float64() * 3
		for ; now >= tick; tick += 10 {
			expired := cached.ExpireEdges(tick)
			if !slicesEqual(expired, plain.ExpireEdges(tick)) {
				t.Fatalf("at %v: expired orders diverged", tick)
			}
			for _, id := range expired {
				cached.Remove(id, tick)
				plain.Remove(id, tick)
			}
			if ids := cached.OrderIDs(); len(ids) > 0 {
				if g, _, ok := cached.BestGroup(ids[0]); ok {
					gp, _, _ := plain.BestGroup(ids[0])
					cached.RemoveGroup(g, tick)
					plain.RemoveGroup(gp, tick)
				}
			}
			comparePools(t, cached, plain, tick)
			checkSlots(t, cached, nil)
		}
		pu := node(b.Min.X+cell*(9+6*rng.Float64()), b.Min.Y+cell*(9+6*rng.Float64()))
		do := node(b.Min.X+cell*(4+16*rng.Float64()), b.Min.Y+cell*(4+16*rng.Float64()))
		if pu == do {
			continue
		}
		o := mk(net, id, pu, do, now, 1.3+0.7*rng.Float64())
		cached.Insert(o, now)
		plain.Insert(o, now)
		comparePools(t, cached, plain, now)
	}
	return cached.CacheStats()
}

// TestDispatchedGroupSurvivesRecycling takes a best group out of the pool
// the way a dispatch does and churns the pool until the entries its removal
// evicted — its own clique's entry among them — have been handed out again
// to other member sets: the group keeps its members, stops, arrivals and
// cost bit for bit, and every pooled order's best group holds the order and
// pooled orders only.
func TestDispatchedGroupSurvivesRecycling(t *testing.T) {
	p, net, _ := testPool(-1)
	corridor := func(id int, now float64) *order.Order {
		x := id % 4
		return mk(net, id, net.Node(x, 0), net.Node(10+x, 0), now, 2.0)
	}
	for id := 1; id <= 4; id++ {
		p.Insert(corridor(id, 0), 0)
	}
	g, _, ok := p.BestGroup(1)
	if !ok {
		t.Fatal("corridor order has no best group; test is vacuous")
	}
	own := p.cache.cached(memberKey(g.Orders))
	if own == nil || !own.feasible {
		t.Fatal("the best group's clique is not cached positive")
	}
	members := slices.Clone(g.Orders)
	stops, arrive, cost := slices.Clone(g.Plan.Stops), slices.Clone(g.Plan.Arrive), g.Plan.Cost

	p.RemoveGroup(g, 0)
	if !slices.Contains(p.cache.spare, own) {
		t.Fatal("removing the group recycled nothing; test is vacuous")
	}
	reused := func() bool {
		for _, rec := range p.cache.recs {
			if rec.ent == own {
				return true
			}
		}
		return false
	}
	now, id := 0.0, 100
	for ; !reused(); id++ {
		if id == 200 {
			t.Fatal("churn never handed the recycled entry out again")
		}
		now += 20
		p.Insert(corridor(id, now), now)
		for _, gone := range p.ExpireEdges(now) {
			p.Remove(gone, now)
		}
		for _, pid := range p.OrderIDs() {
			if pg, _, ok := p.BestGroup(pid); ok {
				for _, o := range pg.Orders {
					if !p.Contains(o.ID) {
						t.Fatalf("order %d's best group holds order %d, which left the pool", pid, o.ID)
					}
				}
				if !groupHas(pg, pid) {
					t.Fatalf("order %d's best group %s does not hold it", pid, pg.Key())
				}
			}
		}
	}
	if !slices.Equal(g.Orders, members) || g.Plan.Cost != cost || !slices.Equal(g.Plan.Stops, stops) || !slices.Equal(g.Plan.Arrive, arrive) {
		was := &order.Group{Orders: members}
		t.Fatalf("a dispatched group changed when its entry was recycled: members %s -> %s, cost %v -> %v", was.Key(), g.Key(), cost, g.Plan.Cost)
	}
}

// TestMissingPairEdgePlansFresh builds a best group whose pair edge expires
// before the group does: ExpireEdges drops it without touching the order
// that holds the group, and the dispatch-time plan must then query the
// network instead of reading the block at the dropped edge's position,
// which belongs to another pair. On a 20x20 GridCity (u = one block), a, b
// and q start at the corner; a goes 9 blocks east (deadline slack 100u), b
// 10 blocks north (slack 30u) and q 12 blocks east (slack 48u), all
// inserted at 100u, q released at 0. The pair a-b's cheapest route drops a
// first and b after 28u, so τe = 102u; the triple's cheapest route drops b
// first, then a and q, so τg = 120u, and q, whose long wait makes the
// triple its best, keeps edges to a (148u) and b (120u).
func TestMissingPairEdgePlansFresh(t *testing.T) {
	p, net, planner := testPool(-1)
	u := net.Cost(net.Node(0, 0), net.Node(1, 0))
	at := func(id, x, y int, release, deadline float64) *order.Order {
		pu, do := net.Node(0, 0), net.Node(x, y)
		return &order.Order{ID: id, Pickup: pu, Dropoff: do, Riders: 1, Release: release,
			Deadline: deadline, WaitLimit: 1e9, DirectCost: net.Cost(pu, do)}
	}
	now := 100 * u
	a := at(1, 9, 0, now, 200*u)
	b := at(2, 0, 10, now, 130*u)
	q := at(3, 12, 0, 0, 160*u)
	for _, o := range []*order.Order{a, b, q} {
		p.Insert(o, now)
	}
	sa := p.mustSlot(t, a.ID)
	i, ok := searchEdge(p.nodes[sa].adj, b.ID)
	if !ok || p.nodes[sa].adj[i].expiry != 102*u {
		t.Fatalf("edge a-b missing or τe not 102u: %v", p.nodes[sa].adj)
	}
	v, ok := p.Best(q.ID)
	if !ok || memberKey(v.Members()) != memberKey([]*order.Order{a, b, q}) || v.Expiry() != 120*u {
		t.Fatal("q's best group is not the triple with τg 120u; test is vacuous")
	}
	before, _, _ := p.BestGroup(q.ID)

	p.ExpireEdges(110 * u)
	if _, ok := searchEdge(p.nodes[sa].adj, b.ID); ok {
		t.Fatal("ExpireEdges kept edge a-b past τe")
	}
	if v, ok := p.Best(q.ID); !ok || v.Members()[1] != b || p.nodes[p.mustSlot(t, q.ID)].bestAt != now {
		t.Fatal("q's best group changed; test is vacuous")
	}
	g, _, ok := p.BestGroup(q.ID)
	want, wok := planner.PlanGroup([]*order.Order{a, b, q}, now, p.opt.Capacity)
	if !ok || !wok {
		t.Fatalf("the triple has no route (pool %v, fresh %v)", ok, wok)
	}
	for _, got := range []*order.RoutePlan{before.Plan, g.Plan} {
		if got.Cost != want.Cost || !slices.Equal(got.Stops, want.Stops) || !slices.Equal(got.Arrive, want.Arrive) {
			t.Fatalf("planned %+v, a fresh plan is %+v", got, want)
		}
	}
	dropAt := func(id int) int {
		return slices.IndexFunc(want.Stops, func(s order.Stop) bool { return s.OrderID == id && s.Kind == order.DropoffStop })
	}
	if dropAt(b.ID) > dropAt(a.ID) {
		t.Fatalf("the triple's route does not drop b before a: %+v", want.Stops)
	}
}

// TestRefListStaysCompact keeps one order pooled while its co-members churn:
// each round the oldest co-member leaves and a new one joins, so the order
// stays a member of about as many cached keys, and every round turns the
// refs to the leaving member's keys stale. The order's ref list must stay
// within twice its live refs; a list that kept its stale refs until the
// order itself left would grow by a round's evictions every round.
func TestRefListStaysCompact(t *testing.T) {
	p, net, _ := testPool(-1)
	corridor := func(id int) *order.Order {
		x := id % 4
		return mk(net, id, net.Node(x, 0), net.Node(10+x, 0), 0, 2.0)
	}
	const members = 3
	for id := 1; id <= 1+members; id++ {
		p.Insert(corridor(id), 0)
	}
	s := p.mustSlot(t, 1)
	live := func() int {
		k := 0
		for _, r := range p.nodes[s].plans {
			if p.cache.recs[r.rec].gen == r.gen {
				k++
			}
		}
		return k
	}
	if live() < 2*members {
		t.Fatalf("order 1 is a member of %d cached keys; the test is vacuous", live())
	}
	for id := 2 + members; id < 200; id++ {
		p.Remove(id-members, 0)
		p.Insert(corridor(id), 0)
		if got, want := len(p.nodes[s].plans), live(); got > 2*want {
			t.Fatalf("after order %d joined: order 1 lists %d refs, %d of them live", id, got, want)
		}
	}
}

// TestSubsetRuleDecidesWithoutRecord looks a 4-set up with a prefix verdict
// that is not negative, one of whose triples is cached negative:
// on an exact lattice it is decided negative without a DP and is not
// recorded; with the exactness gate off it is planned and recorded.
func TestSubsetRuleDecidesWithoutRecord(t *testing.T) {
	p, net, _ := testPool(-1)
	tri := negativeTriangle(t, p, net)
	d := mk(net, 4, net.Node(0, 1), net.Node(10, 1), 0, 2.0)
	p.Insert(d, 0)
	if !p.exact || p.cache.cached(memberKey(tri)) != &p.cache.negative {
		t.Fatal("the lattice is not exact or the triple is not cached negative; the test is vacuous")
	}
	quad := memberKey(append(slices.Clone(tri), d))
	lookup := func() *planEntry {
		var slots [4]int32
		for i, id := range quad.ids[:quad.n] {
			slots[i] = p.mustSlot(t, id)
		}
		canon, cs := p.canonical(slots[:]...)
		// The prefix verdict passed is not negative, so only the cached
		// negative triple {1, 2, 3} can decide the set.
		return p.planEntryFor(canon, cs, 0, false)
	}
	before := p.CacheStats()
	if ent := lookup(); ent != &p.cache.negative {
		t.Fatalf("the 4-set over a negative triple came back %+v", ent)
	}
	got := p.CacheStats()
	if got.PrefixPruned != before.PrefixPruned+1 || got.Misses != before.Misses || got.Renewed != before.Renewed {
		t.Fatalf("the 4-set was not decided by its triple: %+v -> %+v", before, got)
	}
	if p.cache.cached(quad) != nil {
		t.Fatal("a subset-decided 4-set was recorded")
	}
	p.exact = false
	lookup()
	if got := p.CacheStats(); got.Misses != before.Misses+1 || p.cache.cached(quad) != &p.cache.negative {
		t.Fatalf("without the gate the 4-set was not planned and recorded negative: %+v", got)
	}
}
