package route

import (
	"testing"

	"watter/internal/dataset"
	"watter/internal/geo"
	"watter/internal/roadnet"
)

// BenchmarkLegBlockFill times what an order's insertion mostly pays for on a
// road graph: the leg block of one pair test, filled and — most tests fail —
// released again. The block arm is LegStore.Fill as a pool's first test of
// a new order calls it (two 2x2 cross fills, each under its owner's budget
// at the insert's clock, the later order's release, plus the two
// within-order legs, neither yet in its slot's memo); the point arm is the
// ten exact Cost calls those legs stand for. Pairs are release-adjacent
// orders of a seeded CDC evening-peak stream on the city's 1764-node
// jittered graph (the repository benchmark's grid_alt city), answered by ALT
// or by the hierarchy.
func BenchmarkLegBlockFill(b *testing.B) {
	profile := dataset.CDC()
	profile.RoadJitter, profile.RoadSeed = 0.3, 1
	for _, engine := range []string{"alt", "ch"} {
		city := profile.Build()
		g := city.Net.(*roadnet.Lattice).Graph
		if engine == "ch" {
			g.EnableHierarchy()
		}
		stream := city.Orders(dataset.WorkloadConfig{Orders: 300, Seed: 3})
		b.Run(engine+"/block", func(b *testing.B) {
			store := NewLegStore(g)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo, hi := stream[i%256], stream[i%256+1]
				blk := store.Fill(lo, NoSlot, hi, NoSlot, hi.Release)
				benchCostSink += blk.c[legWithinHi]
				store.Release(blk)
			}
		})
		b.Run(engine+"/point", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo, hi := stream[i%256], stream[i%256+1]
				for _, s := range [2]geo.NodeID{lo.Pickup, lo.Dropoff} {
					for _, d := range [2]geo.NodeID{hi.Pickup, hi.Dropoff} {
						benchCostSink += g.Cost(s, d) + g.Cost(d, s)
					}
				}
				benchCostSink += g.Cost(lo.Pickup, lo.Dropoff) + g.Cost(hi.Pickup, hi.Dropoff)
			}
		})
	}
}
