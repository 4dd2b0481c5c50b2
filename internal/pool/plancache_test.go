package pool

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"watter/internal/gridindex"
	"watter/internal/order"
	"watter/internal/roadnet"
	"watter/internal/route"
)

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// cacheReferences reports whether any live cache entry references the order.
func cacheReferences(p *Pool, id int) bool {
	if p.cache == nil {
		return false
	}
	for _, ent := range p.cache.entries {
		for _, m := range ent.orders() {
			if m.ID == id {
				return true
			}
		}
	}
	return false
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
		if groupContains(g, o.ID) && cacheReferences(p, o.ID) {
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

// TestPlanCacheNegativePermanence builds a triangle whose pairs are all
// feasible but whose 3-clique is not: the triple must become a permanent
// negative entry served without replanning.
func TestPlanCacheNegativePermanence(t *testing.T) {
	p, net, _ := testPool(-1)
	// Geometry (20x20 grid, 10 s per cell): a and b are parallel generous
	// corridors at y=0 and y=4; c runs between them at y=2 with a tight
	// deadline. Each pair shares fine; any route over all three delays c's
	// dropoff past its deadline (see the derivation in the PR that added
	// the cache).
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
	planner := route.NewPlanner(net)
	if _, ok := planner.PlanGroup([]*order.Order{a, b, c}, 0, 4); ok {
		t.Fatal("triple unexpectedly feasible; negative-cache test is vacuous")
	}
	var neg *planEntry
	for _, ent := range p.cache.entries {
		if !ent.feasible {
			neg = ent
		}
	}
	if neg == nil {
		t.Fatal("no negative entry cached for the infeasible triple")
	}
	if neg.n != 3 {
		t.Fatalf("negative entry has %d members, want the triple", neg.n)
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
	found := false
	for _, ent := range p.cache.entries {
		if !ent.feasible && ent.n == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("negative entry vanished while all members remain pooled")
	}
	// Removing a member evicts it; re-inserting replans from scratch.
	p.Remove(3, 6)
	for _, ent := range p.cache.entries {
		if ent.n == 3 {
			t.Fatal("triple entry survived member removal")
		}
	}
}

// TestPlanCacheAllocations pins what a probe of the cache costs the
// allocator: a miss is the entry itself (members, service times and key are
// inline; the per-member index and the map grow amortized), a hit is free,
// and so is a pair test that fails — the probe entry is reused and the leg
// block it filled is recycled by the next fill.
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
	if ent := p.cache.entries[key]; ent == nil || !ent.feasible {
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
		delete(p.cache.entries, key)
		p.lookup(0, 1, 2, 3)
	}); n > 2 {
		t.Errorf("a cache miss allocates %v times, want at most 2", n)
	}
	if got := p.CacheStats(); got.Misses != before.Misses+101 {
		t.Fatalf("miss arm did not miss: %+v -> %+v", before, got)
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
		g := p.groupFor(ent, now)
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
