package route

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// TestPlanGroupSharedMatchesFresh drives random groups on both network
// kinds and checks that store-assembled plans are bit-identical to plans
// built from fresh batched queries.
func TestPlanGroupSharedMatchesFresh(t *testing.T) {
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
			fresh, okFresh := p.PlanGroup(orders, 0, 4)
			shared, okShared := p.PlanGroupShared(orders, 0, 4, store)
			if okFresh != okShared {
				t.Fatalf("%s trial %d: feasibility diverged fresh=%v shared=%v", name, trial, okFresh, okShared)
			}
			if !okFresh {
				continue
			}
			feasible++
			if !plansEqual(fresh, shared) {
				t.Fatalf("%s trial %d: store-assembled plan diverged:\nfresh:  %+v\nshared: %+v", name, trial, fresh, shared)
			}
			// Replan through the now-warm blocks: the reuse path must give
			// the same bits as the fill path.
			again, okAgain := p.PlanGroupShared(orders, 0, 4, store)
			if !okAgain || !plansEqual(fresh, again) {
				t.Fatalf("%s trial %d: warm-block replan diverged", name, trial)
			}
		}
		if feasible == 0 {
			t.Fatalf("%s: no feasible trials, test is vacuous", name)
		}
		if hits, fills := store.Stats(); hits == 0 || fills == 0 {
			t.Fatalf("%s: store never exercised (hits=%d fills=%d)", name, hits, fills)
		}
	}
}

// TestPlanGroupCostMatchesPlanGroup checks the cost-only fast path returns
// exactly the cost, per-member service times and τg the materializing path
// produces, with and without a LegStore.
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
	}
	if feasible < 20 {
		t.Fatalf("only %d feasible trials, test is weak", feasible)
	}
}

// TestLegStoreEvict checks eviction drops every block involving the order
// and that re-queries refill rather than resurrect.
func TestLegStoreEvict(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	store := NewLegStore(net)
	mkO := func(id int, pu, do geo.NodeID) *order.Order {
		return &order.Order{ID: id, Pickup: pu, Dropoff: do, Riders: 1, Deadline: 1e9, DirectCost: net.Cost(pu, do)}
	}
	a, b, c := mkO(1, 0, 5), mkO(2, 10, 15), mkO(3, 20, 25)
	store.block(a, b)
	store.block(b, a) // same pair, swapped: must hit, not refill
	store.block(a, c)
	store.block(b, c)
	if store.Len() != 3 {
		t.Fatalf("blocks = %d, want 3", store.Len())
	}
	if hits, fills := store.Stats(); hits != 1 || fills != 3 {
		t.Fatalf("hits=%d fills=%d, want 1/3", hits, fills)
	}
	store.Evict(2)
	if store.Len() != 1 {
		t.Fatalf("blocks after evict = %d, want 1 (only a-c)", store.Len())
	}
	store.Evict(1)
	store.Evict(3)
	if store.Len() != 0 {
		t.Fatalf("blocks after full evict = %d", store.Len())
	}
	_, fillsBefore := store.Stats()
	store.block(a, b)
	if _, fills := store.Stats(); fills != fillsBefore+1 {
		t.Fatal("evicted block was resurrected instead of refilled")
	}
}

// TestLegStoreDropPairRecyclesBlock: a dropped pair's block becomes the next
// fill's storage — the next pair must read its own costs out of it, and a
// fill-and-drop cycle (what a failed pair test is) must not allocate.
func TestLegStoreDropPairRecyclesBlock(t *testing.T) {
	net := roadnet.NewPerturbedGrid(8, 8, 150, 8, 0.3, 2)
	store := NewLegStore(net)
	mkO := func(id int, pu, do geo.NodeID) *order.Order {
		return &order.Order{ID: id, Pickup: pu, Dropoff: do, Riders: 1, Deadline: 1e9}
	}
	a, b, c := mkO(1, 0, 5), mkO(2, 10, 15), mkO(3, 20, 63)
	dropped, _ := store.block(a, b)
	store.DropPair(2, 1)
	if store.Len() != 0 {
		t.Fatalf("blocks after drop = %d", store.Len())
	}
	got, _ := store.block(a, c)
	if got != dropped {
		t.Fatal("the dropped block was not recycled by the next fill")
	}
	// The ten cells a plan reads hold the a-c costs; the other six hold the
	// sentinel, whatever the recycled block held there before.
	var want legBlock
	nodes := []geo.NodeID{a.Pickup, a.Dropoff, c.Pickup, c.Dropoff}
	roadnet.FillCostMatrix(net, nodes, nodes, want[:])
	for _, at := range legUnreadAt {
		want[at] = legUnread
	}
	for at := range want {
		if math.Float64bits(got[at]) != math.Float64bits(want[at]) {
			t.Fatalf("recycled block cell %d holds %v, want %v (block %v)", at, got[at], want[at], *got)
		}
	}
	if again, _ := store.block(a, b); again == got {
		t.Fatal("a live block was handed out twice")
	}
	store.block(b, c) // size the per-order index past the cycle below
	if raceEnabled {
		return // pooled search scratch is dropped at random; counts mean nothing
	}
	if n := testing.AllocsPerRun(50, func() {
		store.block(a, b)
		store.DropPair(1, 2)
	}); n != 0 {
		t.Fatalf("a fill-and-drop cycle allocates %v times, want 0", n)
	}
}

// TestLegStoreDropPairLeavesNoIndexResidue: a failed pair test is fill, plan,
// drop, and most tests fail — so a long-pooled order used to collect one
// stale index key per arrival it was tested against, all of which Evict and
// BlocksFor then walked. DropPair takes its two keys back out: however many
// tests fail against a pooled order, its index holds its live blocks only.
func TestLegStoreDropPairLeavesNoIndexResidue(t *testing.T) {
	net := roadnet.NewPerturbedGrid(8, 8, 150, 8, 0.3, 2)
	store := NewLegStore(net)
	mkO := func(id int, pu, do geo.NodeID) *order.Order {
		return &order.Order{ID: id, Pickup: pu, Dropoff: do, Riders: 1, Deadline: 1e9}
	}
	pooled, friend := mkO(1, 0, 5), mkO(2, 10, 15)
	live, _ := store.block(pooled, friend) // an edge: this block stays
	const arrivals = 40
	for i := 0; i < arrivals; i++ {
		o := mkO(100+i, geo.NodeID(16+i), geo.NodeID(63-i))
		store.block(pooled, o)
		store.DropPair(o.ID, pooled.ID)
		if got := len(store.byOrder[o.ID]); got != 0 {
			t.Fatalf("arrival %d keeps %d index keys after its only block was dropped", o.ID, got)
		}
	}
	if got := len(store.byOrder[pooled.ID]); got != 1 {
		t.Fatalf("pooled order indexes %d keys after %d failed tests, want its 1 live block", got, arrivals)
	}
	if store.Len() != 1 || store.BlocksFor(pooled.ID) != 1 || store.BlocksFor(friend.ID) != 1 {
		t.Fatalf("live blocks: store %d, pooled %d, friend %d, want 1/1/1",
			store.Len(), store.BlocksFor(pooled.ID), store.BlocksFor(friend.ID))
	}
	if hits, fills := store.Stats(); hits != 0 || fills != 1+arrivals {
		t.Fatalf("hits=%d fills=%d, want 0/%d", hits, fills, 1+arrivals)
	}
	if again, _ := store.block(friend, pooled); again != live {
		t.Fatal("the surviving block was replaced")
	}
	// Dropping a pair that is not the tail of its index (a third block was
	// filled since) removes that key and no other.
	third := mkO(3, 20, 25)
	store.block(pooled, third)
	store.DropPair(pooled.ID, friend.ID)
	if keys := store.byOrder[pooled.ID]; len(keys) != 1 || keys[0] != (pairKey{1, 3}) {
		t.Fatalf("pooled order indexes %v after dropping its first pair, want [{1 3}]", keys)
	}
	store.Evict(pooled.ID)
	if store.Len() != 0 || store.BlocksFor(pooled.ID) != 0 {
		t.Fatalf("evicting the pooled order left %d blocks", store.Len())
	}
}

// TestAdoptDeterministicOrder pins a fixed map-iteration leak in Adopt:
// whatever order the donor store filled its blocks in, adopting the same
// block set must leave identical byOrder indexes, grown in (lo, hi)
// order — the sharded engine adopts per-task stores in whatever order the
// scheduler produced them, and the pool's internal state must stay
// bit-stable regardless. Repeated runs give Go's randomized map order
// every chance to expose a regression.
func TestAdoptDeterministicOrder(t *testing.T) {
	net := roadnet.NewGridCity(8, 8, 100, 10)
	rng := rand.New(rand.NewSource(5))
	orders := randomGroup(net, rng, 8, 6)

	type pair struct{ i, j int }
	var pairs []pair
	for i := range orders {
		for j := i + 1; j < len(orders); j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	fill := func(ps []pair) *LegStore {
		s := NewLegStore(net)
		for _, p := range ps {
			s.block(orders[p.i], orders[p.j])
		}
		return s
	}
	rev := make([]pair, len(pairs))
	for i, p := range pairs {
		rev[len(pairs)-1-i] = p
	}

	keyLess := func(x, y pairKey) int {
		if x.lo != y.lo {
			return x.lo - y.lo
		}
		return x.hi - y.hi
	}
	for it := 0; it < 10; it++ {
		a, b := NewLegStore(net), NewLegStore(net)
		a.Adopt(fill(pairs))
		b.Adopt(fill(rev))
		if !reflect.DeepEqual(a.byOrder, b.byOrder) {
			t.Fatalf("iteration %d: byOrder differs between fill orders:\n%v\nvs\n%v",
				it, a.byOrder, b.byOrder)
		}
		for id, keys := range a.byOrder {
			if !slices.IsSortedFunc(keys, keyLess) {
				t.Fatalf("iteration %d: byOrder[%d] not in (lo, hi) order: %v", it, id, keys)
			}
		}
	}
}
