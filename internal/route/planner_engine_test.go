package route

import (
	"math/rand"
	"reflect"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// TestPlanGroupEngineMatchesSSSP: the planner's leg matrix is filled by the
// batched ALT engine; plans must be identical — stops, arrivals and cost,
// bit for bit — to those a second planner computes pair by pair over the
// reference Dijkstra, for random groups on random jittered cities, with and
// without an explicit start node.
func TestPlanGroupEngineMatchesSSSP(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := roadnet.NewPerturbedGrid(10, 10, 150, 8, 0.35, seed)
		rng := rand.New(rand.NewSource(seed * 211))
		n := g.NumNodes()
		planner, refPlanner := NewPlanner(g), NewPlanner(roadnet.Reference(g))
		for rep := 0; rep < 40; rep++ {
			k := 1 + rng.Intn(3)
			orders := make([]*order.Order, k)
			now := float64(rng.Intn(100))
			for i := range orders {
				pu := geo.NodeID(rng.Intn(n))
				do := geo.NodeID(rng.Intn(n))
				direct := g.Cost(pu, do)
				orders[i] = &order.Order{
					ID: i + 1, Pickup: pu, Dropoff: do, Riders: 1 + rng.Intn(2),
					Release: now, Deadline: now + 3*direct + 120,
					WaitLimit: 60, DirectCost: direct,
				}
			}
			start := geo.InvalidNode
			if rng.Intn(2) == 0 {
				start = geo.NodeID(rng.Intn(n))
			}

			planPP, okPP := planner.PlanGroupFrom(orders, now, 4, start)
			planRef, okRef := refPlanner.PlanGroupFrom(orders, now, 4, start)

			if okPP != okRef {
				t.Fatalf("seed %d rep %d: feasibility diverged (engine %v, sssp %v)", seed, rep, okPP, okRef)
			}
			if !okPP {
				continue
			}
			if planPP.Cost != planRef.Cost {
				t.Fatalf("seed %d rep %d: cost %v vs %v", seed, rep, planPP.Cost, planRef.Cost)
			}
			if !reflect.DeepEqual(planPP.Stops, planRef.Stops) || !reflect.DeepEqual(planPP.Arrive, planRef.Arrive) {
				t.Fatalf("seed %d rep %d: plans diverged\nengine: %+v %v\nsssp:   %+v %v",
					seed, rep, planPP.Stops, planPP.Arrive, planRef.Stops, planRef.Arrive)
			}
		}
	}
}
