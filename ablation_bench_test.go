package watter

import (
	"fmt"
	"math/rand"
	"testing"

	"watter/internal/core"
	"watter/internal/dataset"
	"watter/internal/exp"
	"watter/internal/geo"
	"watter/internal/gridindex"
	"watter/internal/order"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/route"
)

// BenchmarkCliqueEnum compares grouping bounds (DESIGN.md §5): pair-only
// (max group 2) against capacity-bounded clique enumeration (4). The
// trade-off is pool maintenance cost vs group quality.
func BenchmarkCliqueEnum(b *testing.B) {
	for _, bound := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("maxGroup=%d", bound), func(b *testing.B) {
			base := exp.DefaultParams(dataset.CDC())
			base.Orders = 500
			base.Workers = 45
			runner := exp.NewRunner()
			setup, err := runner.Setup(base)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alg, err := runner.Build("WATTER-timeout", base)
				if err != nil {
					b.Fatal(err)
				}
				fw := alg.(*core.Framework)
				opt := fw.PoolOpt
				opt.MaxGroupSize = bound
				fw.SetPoolOptions(opt)
				m := replay(b, setup, alg)
				b.ReportMetric(m.AvgGroupSize(), "avg-group")
				b.ReportMetric(m.UnifiedCost(), "unified-cost")
			}
		})
	}
}

// BenchmarkPoolMaintenance measures raw shareability-graph throughput:
// inserts with periodic expiry against pools of different densities.
func BenchmarkPoolMaintenance(b *testing.B) {
	net := roadnet.NewGridCity(40, 40, 150, 8)
	planner := route.NewPlanner(net)
	ix := gridindex.New(net, 10)
	for _, density := range []int{64, 256} {
		b.Run(fmt.Sprintf("pool=%d", density), func(b *testing.B) {
			rng := rand.New(rand.NewSource(2))
			p := pool.New(planner, ix, pool.DefaultOptions())
			// Pre-fill to the target density.
			now := 0.0
			id := 0
			mk := func() *order.Order {
				id++
				pu := net.Node(rng.Intn(40), rng.Intn(40))
				do := net.Node(rng.Intn(40), rng.Intn(40))
				if pu == do {
					do = net.Node((rng.Intn(39) + 1), rng.Intn(40))
				}
				direct := net.Cost(pu, do)
				return &order.Order{
					ID: id, Pickup: pu, Dropoff: do, Riders: 1,
					Release: now, Deadline: now + 1.8*direct, WaitLimit: 0.8 * direct,
					DirectCost: direct,
				}
			}
			for p.Len() < density {
				p.Insert(mk(), now)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				now += 1
				o := mk()
				p.Insert(o, now)
				p.Remove(o.ID, now) // keep density constant
				if i%64 == 0 {
					for _, dead := range p.ExpireEdges(now) {
						p.Remove(dead, now)
					}
					for p.Len() < density {
						p.Insert(mk(), now)
					}
				}
			}
		})
	}
}

// BenchmarkOracle compares the travel-time oracles (DESIGN.md §3), each arm
// named after what answers Cost: the closed-form grid metric, the two
// engines of the Graph ladder, and the reference Dijkstra they reproduce.
func BenchmarkOracle(b *testing.B) {
	graph := func() *roadnet.Graph { return roadnet.NewPerturbedGrid(40, 40, 150, 8, 0.3, 1) }
	hierarchy := graph()
	hierarchy.EnableHierarchy()
	arms := []struct {
		name string
		net  roadnet.Network
	}{
		{"closed-form", roadnet.NewGridCity(40, 40, 150, 8)},
		{"alt", graph()},
		{"ch", hierarchy},
		{"reference", roadnet.Reference(graph())},
	}
	rng := rand.New(rand.NewSource(3))
	qs := make([]geo.NodeID, 1024)
	for i := range qs {
		qs[i] = geo.NodeID(rng.Intn(40 * 40))
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				arm.net.Cost(qs[i%1024], qs[(i*7+3)%1024])
			}
		})
	}
}
