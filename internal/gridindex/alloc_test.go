package gridindex

import (
	"math"
	"math/rand"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// raceEnabled is set by race_test.go when the race detector is compiled in.
var raceEnabled bool

// TestProbeAllocatesNothing: once the index's scratch has grown to its
// ring-size high-water mark, a closest-worker probe allocates nothing —
// found or not, under an infinite budget, a budget of exactly the nearest
// cost, half of it and 1 s, with and without a candidate record — and
// neither does FillSupply into a caller's histogram. The GridCity arm prices
// rings in closed form; the Graph arm runs the bounded ALT and hierarchy
// searches through the graph's pooled scratch, which the race detector drops
// at random, so that arm skips under it.
func TestProbeAllocatesNothing(t *testing.T) {
	for _, arm := range []struct {
		name string
		net  roadnet.Network
	}{
		{"GridCity", roadnet.NewGridCity(24, 24, 150, 8)},
		{"Graph", roadnet.NewPerturbedGrid(16, 16, 150, 8, 0.4, 3)},
		{"Graph hierarchy", hierarchyGraph()},
	} {
		t.Run(arm.name, func(t *testing.T) {
			if _, graph := arm.net.(*roadnet.Graph); graph && raceEnabled {
				t.Skip("the race detector drops the graph's pooled scratch at random")
			}
			probeAllocs(t, arm.net)
		})
	}
}

func hierarchyGraph() *roadnet.Graph {
	g := roadnet.NewPerturbedGrid(16, 16, 150, 8, 0.4, 4)
	g.EnableHierarchy()
	return g
}

func probeAllocs(t *testing.T, net roadnet.Network) {
	ix := New(net, 6)
	rng := rand.New(rand.NewSource(11))
	n := net.NumNodes()
	workers := make([]*order.Worker, 40)
	for i := range workers {
		workers[i] = &order.Worker{
			ID:       i + 1,
			Loc:      geo.NodeID(rng.Intn(n)),
			Capacity: 1 + rng.Intn(4),
			FreeAt:   float64(rng.Intn(3)) * 50,
		}
	}
	wi := NewWorkerIndex(ix, net, workers)
	type probe struct {
		node   geo.NodeID
		now    float64
		minCap int
		budget float64
	}
	var probes []probe
	for range 12 {
		p := probe{node: geo.NodeID(rng.Intn(n)), now: 50, minCap: 1 + rng.Intn(4), budget: math.Inf(1)}
		_, nearest := wi.ClosestIdleWithin(p.node, p.now, p.minCap, p.budget)
		probes = append(probes, p)
		for _, b := range []float64{nearest, nearest / 2, 1} {
			p.budget = b
			probes = append(probes, p)
		}
	}
	// Nobody has five seats, and nobody is idle before time 0: both scan to
	// the last ring and find no one.
	probes = append(probes,
		probe{node: geo.NodeID(rng.Intn(n)), now: 50, minCap: 5, budget: math.Inf(1)},
		probe{node: geo.NodeID(rng.Intn(n)), now: -1, minCap: 1, budget: math.Inf(1)})
	supply := ix.NewDistribution()
	cands := make([]int32, 0, len(workers))
	found, missed := 0, 0
	run := func() {
		found, missed = 0, 0
		for _, p := range probes {
			w, _ := wi.ClosestIdleWithin(p.node, p.now, p.minCap, p.budget)
			cands = cands[:0]
			wi.closestIdleWithin(p.node, p.now, p.minCap, p.budget, &cands)
			if w != nil {
				found++
			} else {
				missed++
			}
		}
		wi.FillSupply(supply, 50)
	}
	run() // grows the scratch to its high-water marks
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Fatalf("a round of %d probes and a supply fill allocates %v times", len(probes), a)
	}
	if found == 0 || missed == 0 {
		t.Fatalf("%d probes found a worker and %d found none: the round must exercise both", found, missed)
	}
}
