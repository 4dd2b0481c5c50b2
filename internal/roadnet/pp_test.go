package roadnet

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"watter/internal/geo"
)

// twoComponentCity builds a graph whose left and right halves are perturbed
// grids with no edges between them: every cross-component distance is +Inf.
// The halves are interleaved in coordinate space so grid-index cells mix
// nodes from both components (the shape that exposed the unreachable-worker
// dispatch bug).
func twoComponentCity(w, h int, seed int64) (*Graph, int) {
	rng := rand.New(rand.NewSource(seed))
	var b GraphBuilder
	for comp := 0; comp < 2; comp++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				// Offset the second component by half a cell: same bounding
				// box, interleaved cells, zero shared edges.
				off := float64(comp) * 50
				b.AddNode(geo.Point{X: float64(x)*100 + off, Y: float64(y)*100 + off})
			}
		}
	}
	node := func(comp, x, y int) geo.NodeID { return geo.NodeID(comp*w*h + y*w + x) }
	for comp := 0; comp < 2; comp++ {
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				sec := 10 * (1 + rng.Float64())
				if x+1 < w {
					b.AddBidirectional(node(comp, x, y), node(comp, x+1, y), sec)
				}
				if y+1 < h {
					b.AddBidirectional(node(comp, x, y), node(comp, x, y+1), 10*(1+rng.Float64()))
				}
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g, w * h
}

// TestCostPPMatchesSSSPRandomGrids is the engine's exactness property test:
// on random jittered grid cities of assorted sizes (with and without
// landmarks), Cost must agree bit-for-bit with the full-Dijkstra Reference
// for every sampled pair.
func TestCostPPMatchesSSSPRandomGrids(t *testing.T) {
	sizes := [][2]int{{4, 4}, {5, 7}, {8, 8}, {12, 9}, {15, 15}}
	for seed := int64(1); seed <= 10; seed++ {
		wh := sizes[int(seed)%len(sizes)]
		g := NewPerturbedGrid(wh[0], wh[1], 150, 8, 0.4, seed)
		ref := Reference(g)
		rng := rand.New(rand.NewSource(seed * 977))
		n := g.NumNodes()
		for q := 0; q < 300; q++ {
			from := geo.NodeID(rng.Intn(n))
			to := geo.NodeID(rng.Intn(n))
			got := g.Cost(from, to)
			want := ref.Cost(from, to)
			if got != want {
				t.Fatalf("seed %d: Cost(%d,%d) = %v, reference = %v (diff %g)",
					seed, from, to, got, want, got-want)
			}
		}
	}
}

// TestCostPPUnreachablePairs checks the engine on disconnected graphs:
// cross-component queries must return +Inf exactly like the reference, and
// within-component queries must still match bit-for-bit.
func TestCostPPUnreachablePairs(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g, half := twoComponentCity(6, 5, seed)
		ref := Reference(g)
		rng := rand.New(rand.NewSource(seed * 31))
		for q := 0; q < 200; q++ {
			from := geo.NodeID(rng.Intn(2 * half))
			to := geo.NodeID(rng.Intn(2 * half))
			got := g.Cost(from, to)
			want := ref.Cost(from, to)
			if got != want {
				t.Fatalf("seed %d: Cost(%d,%d) = %v, want %v", seed, from, to, got, want)
			}
			crossComponent := (int(from) < half) != (int(to) < half)
			if crossComponent && !math.IsInf(got, 1) {
				t.Fatalf("cross-component pair (%d,%d) got finite %v", from, to, got)
			}
		}
	}
}

// TestCostMatrixMatchesSSSP: the batched many-to-many fill must agree
// bit-for-bit with pairwise reference queries, including duplicate sources,
// duplicate targets, source==target and unreachable pairs.
func TestCostMatrixMatchesSSSP(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		var g *Graph
		var n int
		if seed%2 == 0 {
			g = NewPerturbedGrid(9, 11, 150, 8, 0.35, seed)
			n = g.NumNodes()
		} else {
			g, n = twoComponentCity(5, 5, seed)
			n *= 2
		}
		ref := Reference(g)
		rng := rand.New(rand.NewSource(seed * 131))
		for rep := 0; rep < 20; rep++ {
			ns := 1 + rng.Intn(8)
			nt := 1 + rng.Intn(8)
			sources := make([]geo.NodeID, ns)
			targets := make([]geo.NodeID, nt)
			for i := range sources {
				sources[i] = geo.NodeID(rng.Intn(n))
			}
			for j := range targets {
				targets[j] = geo.NodeID(rng.Intn(n))
			}
			// Force duplicates and a source that is also a target.
			if ns > 2 {
				sources[ns-1] = sources[0]
			}
			if nt > 2 {
				targets[nt-1] = targets[0]
			}
			if nt > 1 {
				targets[1] = sources[0]
			}
			m := make([]float64, ns*nt)
			FillCostMatrix(g, sources, targets, m)
			for i, s := range sources {
				for j, tt := range targets {
					if got, want := m[i*nt+j], ref.Cost(s, tt); got != want {
						t.Fatalf("seed %d: matrix[%d][%d] (cost %d->%d) = %v, want %v",
							seed, i, j, s, tt, got, want)
					}
				}
			}
		}
	}
}

// TestFillCostMatrixFallback: the helper must produce identical results for
// a closed-form network (pairwise fallback) and a Graph (batched engine).
func TestFillCostMatrixFallback(t *testing.T) {
	city := NewGridCity(8, 8, 100, 10)
	g := city.asGraph()
	sources := []geo.NodeID{0, 5, 17, 17, 63}
	targets := []geo.NodeID{3, 0, 40, 3}
	nt := len(targets)
	closed := make([]float64, len(sources)*nt)
	explicit := make([]float64, len(sources)*nt)
	FillCostMatrix(city, sources, targets, closed)
	FillCostMatrix(g, sources, targets, explicit)
	for i := range closed {
		if closed[i] != explicit[i] {
			t.Fatalf("slot %d: closed-form %v vs graph engine %v", i, closed[i], explicit[i])
		}
	}
}

// TestFillCostMatrixWithinBudget pins the budget contract: every entry
// whose true cost is <= maxCost must be exact (bit-identical to the
// reference); beyond-budget entries may be either exact or +Inf.
func TestFillCostMatrixWithinBudget(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := NewPerturbedGrid(10, 10, 150, 8, 0.3, seed)
		ref := Reference(g)
		rng := rand.New(rand.NewSource(seed * 389))
		n := g.NumNodes()
		for rep := 0; rep < 15; rep++ {
			sources := make([]geo.NodeID, 4)
			targets := make([]geo.NodeID, 5)
			for i := range sources {
				sources[i] = geo.NodeID(rng.Intn(n))
			}
			for j := range targets {
				targets[j] = geo.NodeID(rng.Intn(n))
			}
			budget := float64(rng.Intn(300))
			out := make([]float64, len(sources)*len(targets))
			FillCostMatrixWithin(g, sources, targets, budget, out)
			for i, s := range sources {
				for j, tt := range targets {
					got := out[i*len(targets)+j]
					want := ref.Cost(s, tt)
					if want <= budget && got != want {
						t.Fatalf("seed %d: in-budget entry (%d->%d, budget %v) = %v, want %v",
							seed, s, tt, budget, got, want)
					}
					if want > budget && got != want && !math.IsInf(got, 1) {
						t.Fatalf("seed %d: beyond-budget entry (%d->%d) = %v, want %v or +Inf",
							seed, s, tt, got, want)
					}
				}
			}
		}
	}
}

// TestCostPPConcurrent hammers the pooled-scratch engine from many
// goroutines under -race, cross-checking against the closed form.
func TestCostPPConcurrent(t *testing.T) {
	city := NewGridCity(12, 12, 100, 5)
	g := city.asGraph()
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			n := g.NumNodes()
			for q := 0; q < 300; q++ {
				from := geo.NodeID(rng.Intn(n))
				to := geo.NodeID(rng.Intn(n))
				if got, want := g.Cost(from, to), city.Cost(from, to); got != want {
					select {
					case errs <- "engine mismatch under concurrency":
					default:
					}
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}
}

// TestLandmarksBuilt sanity-checks the preprocessing: a mid-size graph gets
// landmarks, a tiny one skips them, and bounds are never negative.
func TestLandmarksBuilt(t *testing.T) {
	g := NewPerturbedGrid(10, 10, 150, 8, 0.3, 2)
	if len(g.landmarks) == 0 {
		t.Fatal("100-node graph built without landmarks")
	}
	if want := 2 * len(g.landmarks) * g.NumNodes(); len(g.landPack) != want {
		t.Fatalf("landmark table holds %d entries for %d landmarks, want %d", len(g.landPack), len(g.landmarks), want)
	}
	ref := Reference(g)
	rng := rand.New(rand.NewSource(7))
	for q := 0; q < 200; q++ {
		v := geo.NodeID(rng.Intn(g.NumNodes()))
		u := geo.NodeID(rng.Intn(g.NumNodes()))
		lb := g.altBound(v, u)
		if lb < 0 {
			t.Fatalf("negative ALT bound %v", lb)
		}
		if d := ref.Cost(v, u); lb > d {
			t.Fatalf("ALT bound %v exceeds true distance %v for (%d,%d)", lb, d, v, u)
		}
	}
	tiny := NewPerturbedGrid(3, 3, 100, 10, 0, 1)
	if len(tiny.landmarks) != 0 {
		t.Fatalf("9-node graph built %d landmarks, want 0", len(tiny.landmarks))
	}
}

func BenchmarkCostALT(b *testing.B) {
	g := NewPerturbedGrid(40, 40, 200, 8, 0.2, 9)
	n := geo.NodeID(g.NumNodes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Cost(geo.NodeID(i)%n, geo.NodeID(i*13+7)%n)
	}
}

// BenchmarkLegMatrixEngine measures the planner leg-matrix workload (8
// nearby events, 8x8 matrix) on the batched engine ...
func BenchmarkLegMatrixEngine(b *testing.B) {
	g := NewPerturbedGrid(40, 40, 200, 8, 0.2, 9)
	nodes, out := legWorkload(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grp := nodes[i%len(nodes)]
		g.costMatrixInto(grp, grp, math.Inf(1), out)
	}
}

// ... while BenchmarkLegMatrixReference is the same workload priced pair by
// pair on the reference: one full Dijkstra per entry, what the matrix costs
// without an engine.
func BenchmarkLegMatrixReference(b *testing.B) {
	g := NewPerturbedGrid(40, 40, 200, 8, 0.2, 9)
	nodes, out := legWorkload(g)
	ref := Reference(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grp := nodes[i%len(nodes)]
		FillCostMatrix(ref, grp, grp, out)
	}
}

// legWorkload samples 64 groups of 8 spatially clustered nodes, the shape
// of the shareability planner's pickup/dropoff leg matrices.
func legWorkload(g *Graph) ([][]geo.NodeID, []float64) {
	rng := rand.New(rand.NewSource(17))
	n := g.NumNodes()
	side := int(math.Sqrt(float64(n)))
	groups := make([][]geo.NodeID, 64)
	for i := range groups {
		cx, cy := rng.Intn(side), rng.Intn(side)
		grp := make([]geo.NodeID, 8)
		for j := range grp {
			x := clampInt(cx+rng.Intn(9)-4, 0, side-1)
			y := clampInt(cy+rng.Intn(9)-4, 0, side-1)
			grp[j] = geo.NodeID(y*side + x)
		}
		groups[i] = grp
	}
	return groups, make([]float64, 64)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
