package route

import (
	"math"
	"math/rand"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// TestPairInfeasibleNeverRejectsFeasible is the certificate's soundness
// property: over random order pairs, rider counts, capacities and clocks, on
// an ALT-answered and a hierarchy-answered graph, PairInfeasible never fires
// on a pair PlanGroupCost accepts. Half the trials then move each deadline
// onto the exact arrival of the accepted route (now + t == deadline passes
// the DP's strict check) and one ulp below it, the edge where a bound that
// overshot by a rounding error would show. DirectCost is set to nonsense: the
// certificate must not read it.
func TestPairInfeasibleNeverRejectsFeasible(t *testing.T) {
	const side = 14
	alt := roadnet.NewPerturbedGrid(side, side, 150, 8, 0.4, 11)
	ch := roadnet.NewPerturbedGrid(side, side, 150, 8, 0.4, 12)
	ch.EnableHierarchy()
	for _, arm := range []struct {
		name string
		g    *roadnet.Graph
	}{{"alt", alt}, {"ch", ch}} {
		name, g := arm.name, arm.g
		planner := NewPlanner(g)
		rng := rand.New(rand.NewSource(5))
		svc := make([]float64, 2)
		var feasible, certified, onEdge int
		check := func(pair []*order.Order, now float64, capacity int) bool {
			_, _, ok := planner.PlanGroupCost(pair, now, capacity, nil, svc)
			pruned := PairInfeasible(g, pair[0], pair[1], now, capacity)
			if ok && pruned {
				t.Fatalf("%s: certificate rejected a feasible pair: %+v %+v now=%v cap=%d",
					name, *pair[0], *pair[1], now, capacity)
			}
			if ok {
				feasible++
			}
			if pruned {
				certified++
			}
			return ok
		}
		for trial := 0; trial < 1500; trial++ {
			pair := randomGroup(g, rng, side, 2)
			now := 200 * rng.Float64()
			for _, o := range pair {
				o.Riders = 1 + rng.Intn(2)
				o.Deadline = now + (0.9+2.5*rng.Float64())*o.DirectCost
				o.DirectCost = 1e9
			}
			capacity := 1 + rng.Intn(4)
			if !check(pair, now, capacity) || trial%2 == 0 {
				continue
			}
			arrive := [2]float64{svc[0], svc[1]}
			for i, o := range pair {
				o.Deadline = now + arrive[i]
			}
			if !check(pair, now, capacity) {
				t.Fatalf("%s: a route arriving exactly on both deadlines was refused", name)
			}
			onEdge++
			for i, o := range pair {
				o.Deadline = math.Nextafter(now+arrive[i], math.Inf(-1))
			}
			check(pair, now, capacity)
		}
		if feasible < 100 || certified < 100 || onEdge < 50 {
			t.Fatalf("%s: weak sample: %d feasible, %d certified infeasible, %d on the deadline edge",
				name, feasible, certified, onEdge)
		}
	}
}

// TestPairInfeasibleUnreachable: an unreachable leg (+Inf bound) on every
// route certifies the pair, and riders over capacity do so without bounds.
func TestPairInfeasibleUnreachable(t *testing.T) {
	var b roadnet.GraphBuilder
	for i := 0; i < 64; i++ {
		b.AddNode(geo.Point{X: float64(i%8) * 100, Y: float64(i/8) * 100})
	}
	// Two 32-node chains with no edge between them.
	for i := 0; i < 31; i++ {
		b.AddBidirectional(geo.NodeID(i), geo.NodeID(i+1), 10)
		b.AddBidirectional(geo.NodeID(32+i), geo.NodeID(33+i), 10)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	a := &order.Order{ID: 1, Pickup: 0, Dropoff: 5, Riders: 1, Deadline: 1e6}
	far := &order.Order{ID: 2, Pickup: 40, Dropoff: 45, Riders: 1, Deadline: 1e6}
	if !PairInfeasible(g, a, far, 0, 4) {
		t.Fatal("orders in different components were not certified unshareable")
	}
	near := &order.Order{ID: 3, Pickup: 1, Dropoff: 6, Riders: 1, Deadline: 1e6}
	if PairInfeasible(g, a, near, 0, 4) {
		t.Fatal("a generously feasible pair was certified infeasible")
	}
	near.Riders = 5
	if !PairInfeasible(g, a, near, 0, 4) {
		t.Fatal("an order over capacity was not certified infeasible")
	}
}
