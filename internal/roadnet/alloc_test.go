package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"watter/internal/geo"
)

// TestHeldScratchSearchAllocatesNothing: on a caller-held scratch grown to
// its high-water marks, the hierarchy answers without touching the heap —
// point queries through costWith (one target and the trip's ubHint) and
// multi-target chSearchFrom calls over a new target set each, first under a
// finite budget that prunes the cone and then at +Inf, which rebuilds it.
// The scratch is held rather than pooled, so the race detector, which drops
// pooled scratch at random, cannot move the count.
func TestHeldScratchSearchAllocatesNothing(t *testing.T) {
	g := NewPerturbedGrid(32, 32, 150, 8, 0.4, 13)
	g.EnableHierarchy()
	ref := Reference(g)
	rng := rand.New(rand.NewSource(17))
	n := g.NumNodes()
	node := func() geo.NodeID { return geo.NodeID(rng.Intn(n)) }
	pairs := make([][2]geo.NodeID, 24)
	for i := range pairs {
		pairs[i][0], pairs[i][1] = node(), node()
		for pairs[i][1] == pairs[i][0] {
			pairs[i][1] = node()
		}
	}
	type search struct {
		src     geo.NodeID
		targets []geo.NodeID
		budget  float64
	}
	searches := make([]search, 9)
	for i := range searches {
		s := &searches[i]
		s.src, s.budget = node(), []float64{60, 240, math.Inf(1)}[i%3]
		for range 4 {
			s.targets = append(s.targets, node())
		}
	}
	sc := g.getScratch()
	costs := make([]float64, len(pairs))
	run := func() {
		for i, p := range pairs {
			costs[i] = g.costWith(sc, p[0], p[1])
		}
		for _, s := range searches {
			sc.setTargets(s.targets...)
			g.chSearchFrom(sc, s.src, s.budget, 0)
			g.chSearchFrom(sc, s.src, math.Inf(1), 0)
		}
	}
	run() // grows the scratch to its high-water marks
	for i, p := range pairs {
		if want := ref.Cost(p[0], p[1]); math.Float64bits(costs[i]) != math.Float64bits(want) {
			t.Fatalf("costWith(%d, %d) = %v, reference %v", p[0], p[1], costs[i], want)
		}
	}
	pops := sc.pops
	if a := testing.AllocsPerRun(20, run); a != 0 {
		t.Fatalf("%d point queries and %d multi-target searches allocate %v times", len(pairs), 2*len(searches), a)
	}
	if sc.pops == pops {
		t.Fatal("the searches popped nothing: the pin measured no search")
	}
}
