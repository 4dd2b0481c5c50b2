package exp

import (
	"math"
	"math/rand"
	"testing"

	"watter/internal/baseline"
	"watter/internal/core"
	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// graphWorkload generates a deterministic order stream and fleet over an
// explicit Graph city (the sweep profiles use the closed-form GridCity, so
// this test builds its own city to exercise the routing engine end to end).
func graphWorkload(g *roadnet.Graph, n, m int, seed int64) ([]*order.Order, []*order.Worker) {
	rng := rand.New(rand.NewSource(seed))
	nodes := g.NumNodes()
	orders := make([]*order.Order, 0, n)
	for i := 0; i < n; i++ {
		pu := geo.NodeID(rng.Intn(nodes))
		do := geo.NodeID(rng.Intn(nodes))
		if pu == do {
			continue
		}
		direct := g.Cost(pu, do)
		release := float64(rng.Intn(400))
		orders = append(orders, &order.Order{
			ID: i + 1, Pickup: pu, Dropoff: do, Riders: 1,
			Release: release, Deadline: release + 2.5*direct + 60,
			WaitLimit: 0.8 * direct, DirectCost: direct,
		})
	}
	workers := make([]*order.Worker, m)
	for i := range workers {
		workers[i] = &order.Worker{
			ID: i + 1, Loc: geo.NodeID(rng.Intn(nodes)), Capacity: 2 + rng.Intn(3),
		}
	}
	return orders, workers
}

// TestSimMetricsEngineEquivalence is the end-to-end acceptance test for the
// routing engine: a full simulation over a Graph-backed city must produce
// bit-identical Metrics whether the city is the Graph — ALT engine, landmark
// bounds, batched matrix and nearest-of-many paths — or roadnet.Reference
// over it, which answers every cost with a plain full Dijkstra and offers
// none of those. Wall-clock fields are the documented exception.
func TestSimMetricsEngineEquivalence(t *testing.T) {
	algs := map[string]func() sim.Algorithm{
		"WATTER-online":  func() sim.Algorithm { return core.New(strategy.Online{}, pool.DefaultOptions()) },
		"WATTER-timeout": func() sim.Algorithm { return core.New(strategy.Timeout{}, pool.DefaultOptions()) },
		"GDP":            func() sim.Algorithm { return &baseline.GDP{} },
		"GAS":            func() sim.Algorithm { return &baseline.GAS{} },
	}
	for name, mk := range algs {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			run := func(reference bool) sim.Metrics {
				g := roadnet.NewPerturbedGrid(12, 12, 150, 8, 0.3, 4)
				orders, workers := graphWorkload(g, 80, 15, 9)
				var net roadnet.Network = g
				if reference {
					net = roadnet.Reference(g)
				}
				p, err := platform.New(net, workers, platform.WithMeasuredTime(false), platform.WithAlgorithm(mk()))
				if err != nil {
					t.Fatal(err)
				}
				m, err := p.Replay(orders)
				if err != nil {
					t.Fatal(err)
				}
				return *m
			}
			engine := run(false)
			ref := run(true)
			engine.DecisionSeconds, ref.DecisionSeconds = 0, 0
			if engine != ref {
				t.Fatalf("metrics diverged between engine and reference oracle:\nengine: %+v\nreference: %+v", engine, ref)
			}
			if engine.Served == 0 {
				t.Fatal("degenerate run: nothing served, equivalence is vacuous")
			}
			if rate := engine.ServiceRate(); math.IsNaN(rate) {
				t.Fatal("NaN service rate")
			}
		})
	}
}
