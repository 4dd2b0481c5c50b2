package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"watter/internal/geo"
)

// TestCHMatchesALTAndSSSP is the contraction hierarchy's exactness property
// test: random jittered, uniform, and disconnected cities are driven through
// CH, ALT, and the full-Dijkstra Reference in lockstep, asserting
// bit-identical distances for every sampled pair — including exact +Inf for
// unreachable ones.
func TestCHMatchesALTAndSSSP(t *testing.T) {
	type city struct {
		name string
		g    *Graph
	}
	var cities []city
	sizes := [][2]int{{4, 4}, {5, 7}, {9, 6}, {12, 12}, {17, 13}}
	for seed := int64(1); seed <= 8; seed++ {
		wh := sizes[int(seed)%len(sizes)]
		cities = append(cities, city{"jitter", NewPerturbedGrid(wh[0], wh[1], 150, 8, 0.4, seed)})
	}
	// Uniform grids are the tie-heavy worst case: equal-weight parallel
	// routes everywhere, so no witness search can margin-separate anything.
	cities = append(cities, city{"uniform", NewPerturbedGrid(11, 11, 150, 8, 0, 3)})
	for seed := int64(1); seed <= 3; seed++ {
		g, _ := twoComponentCity(6, 5, seed)
		cities = append(cities, city{"split", g})
	}

	for ci, c := range cities {
		g := c.g
		g.EnableHierarchy()
		oracle := Reference(g)
		n := g.NumNodes()
		rng := rand.New(rand.NewSource(int64(ci)*7919 + 5))
		for trial := 0; trial < 120; trial++ {
			from := geo.NodeID(rng.Intn(n))
			to := geo.NodeID(rng.Intn(n))
			ref := oracle.Cost(from, to)
			alt := g.CostALT(from, to)
			ch := g.Cost(from, to)
			if !g.HasHierarchy() {
				t.Fatalf("%s[%d]: hierarchy not built", c.name, ci)
			}
			if math.Float64bits(ch) != math.Float64bits(ref) {
				t.Fatalf("%s[%d]: CH(%d,%d) = %v, reference = %v", c.name, ci, from, to, ch, ref)
			}
			if math.Float64bits(alt) != math.Float64bits(ref) {
				t.Fatalf("%s[%d]: ALT(%d,%d) = %v, reference = %v", c.name, ci, from, to, alt, ref)
			}
		}
	}
}

// TestCHMatrixMatchesReference drives the batched matrix path (what the
// route planner and worker index actually call) through the hierarchy arm
// and checks every entry against the reference Dijkstra, both with an
// unbounded budget and with a finite one (where beyond-budget entries may
// legitimately be +Inf, but in-budget entries must be bit-identical).
func TestCHMatrixMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := NewPerturbedGrid(10, 13, 150, 8, 0.35, seed)
		g.EnableHierarchy()
		oracle := Reference(g)
		n := g.NumNodes()
		rng := rand.New(rand.NewSource(seed * 1543))
		sources := make([]geo.NodeID, 7)
		targets := make([]geo.NodeID, 9)
		for i := range sources {
			sources[i] = geo.NodeID(rng.Intn(n))
		}
		for i := range targets {
			targets[i] = geo.NodeID(rng.Intn(n))
		}
		sources[3] = sources[0] // duplicate source row
		targets[4] = targets[1] // duplicate target column
		out := make([]float64, len(sources)*len(targets))
		FillCostMatrix(g, sources, targets, out)
		for i, s := range sources {
			for j, tg := range targets {
				got, ref := out[i*len(targets)+j], oracle.Cost(s, tg)
				if math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("seed %d: matrix[%d][%d] = %v, reference = %v", seed, i, j, got, ref)
				}
			}
		}
		// Bounded fill: exact below budget, +Inf allowed above it.
		budget := 200.0
		FillCostMatrixWithin(g, sources, targets, budget, out)
		for i, s := range sources {
			for j, tg := range targets {
				got := out[i*len(targets)+j]
				ref := oracle.Cost(s, tg)
				if ref <= budget {
					if math.Float64bits(got) != math.Float64bits(ref) {
						t.Fatalf("seed %d: within[%d][%d] = %v, reference = %v", seed, i, j, got, ref)
					}
				} else if got <= budget {
					t.Fatalf("seed %d: within[%d][%d] = %v < budget but reference = %v", seed, i, j, got, ref)
				}
			}
		}
	}
}

// TestHierarchyDeterministic builds the same city twice and requires the
// two hierarchies to be identical structure-for-structure: same ranks, same
// edge arena (endpoints, children, weights), same CSR layout. This is the
// bit-stability half of the CH contract — a rebuilt process must plan the
// same routes.
func TestHierarchyDeterministic(t *testing.T) {
	build := func() *Graph {
		g := NewPerturbedGrid(14, 11, 150, 8, 0.4, 42)
		g.EnableHierarchy()
		return g
	}
	a, b := build(), build()
	ha, hb := a.ch, b.ch
	if ha.coreSize != hb.coreSize || ha.shortcuts != hb.shortcuts {
		t.Fatalf("core/shortcut mismatch: (%d,%d) vs (%d,%d)",
			ha.coreSize, ha.shortcuts, hb.coreSize, hb.shortcuts)
	}
	if len(ha.rank) != len(hb.rank) || len(ha.edges) != len(hb.edges) {
		t.Fatalf("size mismatch: ranks %d vs %d, edges %d vs %d",
			len(ha.rank), len(hb.rank), len(ha.edges), len(hb.edges))
	}
	for i := range ha.rank {
		if ha.rank[i] != hb.rank[i] {
			t.Fatalf("rank[%d]: %d vs %d", i, ha.rank[i], hb.rank[i])
		}
	}
	for i := range ha.edges {
		ea, eb := ha.edges[i], hb.edges[i]
		if ea.from != eb.from || ea.to != eb.to || ea.c1 != eb.c1 || ea.c2 != eb.c2 ||
			ea.hops != eb.hops || math.Float64bits(ea.w) != math.Float64bits(eb.w) ||
			math.Float32bits(ea.w32) != math.Float32bits(eb.w32) {
			t.Fatalf("edge[%d]: %+v vs %+v", i, ea, eb)
		}
	}
	eq32 := func(name string, x, y []int32) {
		if len(x) != len(y) {
			t.Fatalf("%s length: %d vs %d", name, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s[%d]: %d vs %d", name, i, x[i], y[i])
			}
		}
	}
	eq32("upHead", ha.upHead, hb.upHead)
	eq32("upEdge", ha.upEdge, hb.upEdge)
	eq32("dnHead", ha.dnHead, hb.dnHead)
	eq32("dnEdge", ha.dnEdge, hb.dnEdge)
}

// TestScratchSurvivesEnableHierarchy: both engines draw from one scratch
// pool, and a scratch pooled while the graph answered on ALT has n labels
// and no cone arrays where the hierarchy needs 2n and a cone. Queries after
// EnableHierarchy must rebuild such a scratch, not index past it — single
// pairs, matrices and nearest-of-many all still matching the reference.
func TestScratchSurvivesEnableHierarchy(t *testing.T) {
	g := NewPerturbedGrid(11, 9, 150, 8, 0.35, 13)
	oracle := Reference(g)
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(29))
	pick := func(k int) []geo.NodeID {
		out := make([]geo.NodeID, k)
		for i := range out {
			out[i] = geo.NodeID(rng.Intn(n))
		}
		return out
	}
	check := func(stage string) {
		t.Helper()
		sources, targets := pick(6), pick(5)
		out := make([]float64, len(sources)*len(targets))
		FillCostMatrix(g, sources, targets, out)
		for i, s := range sources {
			for j, tg := range targets {
				if got, want := out[i*len(targets)+j], oracle.Cost(s, tg); got != want {
					t.Fatalf("%s: matrix (%d->%d) = %v, reference = %v", stage, s, tg, got, want)
				}
			}
		}
		near := make([]float64, len(sources))
		FillNearestWithin(g, sources, targets[0], math.Inf(1), near)
		want := make([]float64, len(sources))
		for i, s := range sources {
			want[i] = oracle.Cost(s, targets[0])
		}
		if w := nearestArgmin(want, math.Inf(1)); near[w] != want[w] || nearestArgmin(near, math.Inf(1)) != w {
			t.Fatalf("%s: nearest column %v, reference column %v", stage, near, want)
		}
		if got, want := g.Cost(sources[0], targets[1]), oracle.Cost(sources[0], targets[1]); got != want {
			t.Fatalf("%s: pair (%d->%d) = %v, reference = %v", stage, sources[0], targets[1], got, want)
		}
	}
	// Hold several ALT-era scratches so that, whatever the pool drops, the
	// hierarchy queries below are handed at least one of them.
	var warm []*scratch
	for i := 0; i < 4; i++ {
		warm = append(warm, g.getScratch())
	}
	check("alt")
	g.EnableHierarchy()
	for _, sc := range warm {
		if len(sc.dist) != n || sc.coneMark != nil {
			t.Fatalf("ALT-era scratch has %d labels and cone %v, want %d and none", len(sc.dist), sc.coneMark != nil, n)
		}
		g.pool.Put(sc)
	}
	for round := 0; round < 4; round++ {
		check("ch")
	}
	if sc := g.getScratch(); len(sc.dist) != 2*n || len(sc.coneMark) != n {
		t.Fatalf("hierarchy scratch has %d labels and %d cone marks, want %d and %d", len(sc.dist), len(sc.coneMark), 2*n, n)
	}
}
