package roadnet

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"watter/internal/geo"
)

// TestCHMatchesALTAndSSSP is the contraction hierarchy's exactness property
// test: random jittered, uniform, disconnected and DIMACS-imported cities are
// driven through CH, ALT, and the full-Dijkstra Reference in lockstep,
// asserting bit-identical distances for every sampled pair — including exact
// +Inf for unreachable ones.
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
	// An imported city: integer-centisecond weights written by the DIMACS
	// generator and read back, as an outside road network arrives.
	var gr, co bytes.Buffer
	if err := WriteDIMACSGrid(&gr, &co, 20, 20, 200, 8, 0.3, 1); err != nil {
		t.Fatal(err)
	}
	imported, err := ReadDIMACS(&gr, &co)
	if err != nil {
		t.Fatal(err)
	}
	cities = append(cities, city{"dimacs", imported})

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
			alt := g.costALT(from, to)
			ch := g.Cost(from, to)
			if !g.hasHierarchy() {
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

// TestHierarchyShapePinned pins what the contraction builds on one city:
// the shortcut count and the uncontracted core. Both move only when the
// contraction itself changes (node order, witness search, core cutoff); a
// change that stays exact but adds shortcuts makes every query slower.
func TestHierarchyShapePinned(t *testing.T) {
	g := NewPerturbedGrid(32, 32, 200, 8, 0.3, 1)
	if g.hasHierarchy() || g.numShortcuts() != 0 || g.coreSize() != 0 {
		t.Fatal("a 1024-node graph came out of Build with a hierarchy")
	}
	g.EnableHierarchy()
	if got, want := g.numShortcuts(), 5829; got != want {
		t.Errorf("%d shortcuts, want %d", got, want)
	}
	if got, want := g.coreSize(), 32; got != want {
		t.Errorf("core of %d nodes, want %d", got, want)
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

// TestConeBudgetPrunes pins what a search budget does to the hierarchy's
// target cone, counting bucketed cone edges (an unexported counter in the
// scratch, like the effort tests' pops). On a 64x64 lattice, budgeted
// nearest-of-many and matrix fills bucket strictly fewer edges than the same
// calls at +Inf, and every entry the +Inf call reports within the budget
// comes back with the same bits. A cone built under a budget below every
// cost holds exactly the targets' own incoming down edges: the targets are
// its roots and are never pruned. And a search at a larger budget after a
// smaller one in the same target epoch rebuilds the cone and matches the
// reference.
func TestConeBudgetPrunes(t *testing.T) {
	g := NewPerturbedGrid(64, 64, 150, 8, 0.3, 7)
	g.EnableHierarchy()
	ref := Reference(g)
	n := g.NumNodes()
	rng := rand.New(rand.NewSource(3))
	sc := g.getScratch()
	edges := func(fn func()) uint64 {
		before := sc.coneEdges
		fn()
		return sc.coneEdges - before
	}
	pick := func(k int) []geo.NodeID {
		out := make([]geo.NodeID, k)
		for i := range out {
			out[i] = geo.NodeID(rng.Intn(n))
		}
		return out
	}
	inf := math.Inf(1)
	sameWithin := func(what string, budget float64, got, full []float64) {
		t.Helper()
		for i := range full {
			if full[i] <= budget && math.Float64bits(got[i]) != math.Float64bits(full[i]) {
				t.Fatalf("%s under budget %v: entry %d = %v, %v at +Inf", what, budget, i, got[i], full[i])
			}
			if full[i] > budget && got[i] != full[i] && !math.IsInf(got[i], 1) {
				t.Fatalf("%s under budget %v: entry %d = %v beyond the budget, %v at +Inf", what, budget, i, got[i], full[i])
			}
		}
	}
	var nearB, nearInf, matB, matInf uint64
	for trial := 0; trial < 40; trial++ {
		sources, target := pick(8), geo.NodeID(rng.Intn(n))
		budget := 60 + float64(rng.Intn(240))
		near, nearFull := make([]float64, len(sources)), make([]float64, len(sources))
		nearB += edges(func() { g.nearestWith(sc, sources, target, budget, near) })
		nearInf += edges(func() { g.nearestWith(sc, sources, target, inf, nearFull) })
		sameWithin("nearest", budget, near, nearFull)

		targets := pick(2)
		mat, matFull := make([]float64, 2*len(sources)), make([]float64, 2*len(sources))
		matB += edges(func() { g.matrixWith(sc, sources, targets, budget, mat) })
		matInf += edges(func() { g.matrixWith(sc, sources, targets, inf, matFull) })
		sameWithin("matrix", budget, mat, matFull)
		for i, s := range sources {
			for j, d := range targets {
				if want := ref.Cost(s, d); math.Float64bits(matFull[2*i+j]) != math.Float64bits(want) {
					t.Fatalf("matrix at +Inf: cost(%d -> %d) = %v, reference %v", s, d, matFull[2*i+j], want)
				}
			}
		}
	}
	t.Logf("cone edges bucketed: nearest %d under budget vs %d at +Inf, 8x2 matrix %d vs %d", nearB, nearInf, matB, matInf)
	if nearB >= nearInf || matB >= matInf {
		t.Fatalf("budgeted cones bucketed %d (nearest) and %d (matrix) edges, unbudgeted %d and %d: the budget pruned nothing",
			nearB, matB, nearInf, matInf)
	}

	// Below every cost only the roots remain, and a later search of the same
	// epoch at a larger budget (then at none) must rebuild before answering.
	h := g.ch
	for trial := 0; trial < 20; trial++ {
		targets := pick(3)
		sc.setTargets(targets...)
		var roots uint64
		for _, d := range sc.uniq {
			roots += uint64(h.dnRevHead[d+1] - h.dnRevHead[d])
		}
		if got := edges(func() { g.search(sc, geo.NodeID(rng.Intn(n)), -1, 0) }); got != roots {
			t.Fatalf("cone under budget -1 bucketed %d edges, the targets' own incoming down edges number %d", got, roots)
		}
		for _, budget := range []float64{30, 150, inf} {
			src := geo.NodeID(rng.Intn(n))
			g.search(sc, src, budget, 0)
			for k, d := range sc.uniq {
				want := ref.Cost(src, d)
				if got := sc.res[k]; math.Float64bits(got) != math.Float64bits(want) && (want <= budget || !math.IsInf(got, 1)) {
					t.Fatalf("search at budget %v after a smaller one: cost(%d -> %d) = %v, reference %v", budget, src, d, got, want)
				}
			}
		}
	}
}

// freeStreetCity is a w x h lattice whose directed streets take a multiple
// of 0.37 s (so float32 folds round) and, one in freeEvery, nothing at all:
// free corridors give pairs at cost 0 and paths whose cost from a node past
// the source equals the source's, the cases where a cone prune by budget
// sits exactly on the answer.
func freeStreetCity(w, h int, seed int64, freeEvery int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	var b GraphBuilder
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			b.AddNode(geo.Point{X: float64(x) * 150, Y: float64(y) * 150})
		}
	}
	street := func(u, v geo.NodeID) {
		sec := 0.37 * float64(1+rng.Intn(80))
		if rng.Intn(freeEvery) == 0 {
			sec = 0
		}
		b.AddEdge(u, v, sec)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := geo.NodeID(y*w + x)
			if x+1 < w {
				street(v, v+1)
				street(v+1, v)
			}
			if y+1 < h {
				street(v, v+geo.NodeID(w))
				street(v+geo.NodeID(w), v)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// TestConeBudgetContract holds every hierarchy search under a finite budget
// to the budget contract against the reference — an entry within the budget
// exact to the bit, one beyond it exact or +Inf — from every source of
// lattices with free streets, for a landmark target (whose landmark bound is
// tight), a random one and pairs, under budgets of 0, exactly the first
// target's cost, one ulp below it, fractions of it and a few seconds either
// side. Three ways to get the prune wrong fail here: bounding by the raw
// landmark gap instead of the deflated bound (budget at the cost), pruning a
// bound equal to the budget (budget 0), and reporting a label beyond the
// budget whose better route the prune removed (pairs under a budget below
// the farther target).
func TestConeBudgetContract(t *testing.T) {
	for _, freeEvery := range []int{3, 6} {
		g := freeStreetCity(15, 13, 1, freeEvery)
		g.EnableHierarchy()
		n := g.NumNodes()
		rng := rand.New(rand.NewSource(int64(freeEvery)))
		sc := g.getScratch()
		for src := geo.NodeID(0); int(src) < n; src++ {
			dist := g.dijkstra(src)
			for k := 0; k < 12; k++ {
				targets := []geo.NodeID{geo.NodeID(rng.Intn(n)), geo.NodeID(rng.Intn(n))}
				switch k % 4 {
				case 0:
					targets = []geo.NodeID{g.landmarks[rng.Intn(len(g.landmarks))]}
				case 1:
					targets = targets[:1]
				}
				c := float64(dist[targets[0]])
				if math.IsInf(c, 1) {
					continue
				}
				for _, budget := range []float64{c, math.Nextafter(c, math.Inf(-1)), c / 2, c * 0.9, c - 3, 0, c + 3} {
					sc.setTargets(targets...)
					g.search(sc, src, budget, 0)
					for j, d := range sc.uniq {
						want, got := float64(dist[d]), sc.res[j]
						if math.Float64bits(got) != math.Float64bits(want) && (want <= budget || !math.IsInf(got, 1)) {
							t.Fatalf("free streets 1/%d: search from %d to %v under budget %v: cost to %d = %v, reference %v",
								freeEvery, src, targets, budget, d, got, want)
						}
					}
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
