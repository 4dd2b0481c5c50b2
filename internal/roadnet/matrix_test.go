package roadnet

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"watter/internal/geo"
)

// TestMultiTargetEffort counts heap pops — exact and repeatable, unlike a
// timing — to pin what the pending-aware heuristic is for: a batched fill
// must not work harder than the point queries it replaces. On a fixed city
// and its hierarchy twin, over seeded order pairs, the 4x4 self-inclusive
// block of a pair's endpoints and its two 2x2 cross fills are held to the
// pops of Cost on the same off-diagonal entries: no more on ALT, at most
// 1.3x on the hierarchy (whose point queries also prime their prune from the
// trip's landmark upper bound, which a multi-target search cannot). Before
// the heuristic ranged over pending targets only, the 4x4 blocks popped 3.8x
// (ALT) and 4.7x (hierarchy) what their point queries did on this city, the
// cross fills 3.4x on both.
//
// Single-target searches never change their pending set, so they must pop
// exactly what they always did: the point-query and ring totals are pinned
// to the counts the previous search bodies produced on this city.
func TestMultiTargetEffort(t *testing.T) {
	for _, arm := range []struct {
		name        string
		hierarchy   bool
		ceiling     float64
		point, ring uint64 // pops of the single-target shapes before this heuristic existed
	}{
		{"alt", false, 1.0, 55636, 13189},
		{"ch", true, 1.3, 14540, 3601},
	} {
		t.Run(arm.name, func(t *testing.T) {
			g := NewPerturbedGrid(30, 30, 150, 8, 0.3, 11)
			if arm.hierarchy {
				g.EnableHierarchy()
			}
			rng := rand.New(rand.NewSource(5))
			n := g.NumNodes()
			sc := g.getScratch()
			counted := func(fn func()) uint64 {
				before := sc.pops
				fn()
				return sc.pops - before
			}
			var block, cross, point12, point8, ring uint64
			out := make([]float64, 16)
			inf := math.Inf(1)
			for pair := 0; pair < 100; pair++ {
				// Two orders: locs = [pickup_a, dropoff_a, pickup_b, dropoff_b].
				locs := make([]geo.NodeID, 4)
				for i := range locs {
					locs[i] = geo.NodeID(rng.Intn(n))
				}
				block += counted(func() { g.matrixWith(sc, locs, locs, inf, out) })
				cross += counted(func() {
					g.matrixWith(sc, locs[:2], locs[2:], inf, out)
					g.matrixWith(sc, locs[2:], locs[:2], inf, out)
				})
				for i, s := range locs {
					for j, d := range locs {
						if s == d {
							continue
						}
						pops := counted(func() { g.costWith(sc, s, d) })
						point12 += pops
						if i/2 != j/2 {
							point8 += pops
						}
					}
				}
				// Three sources, one target: the worker-ring shape, whose
				// sources share one heuristic epoch.
				ring += counted(func() { g.matrixWith(sc, locs[:3], locs[3:], inf, out) })
			}
			t.Logf("pops over 100 pairs: 4x4 block %d vs %d for its 12 point queries; two 2x2 cross fills %d vs %d for their 8; 3x1 rings %d",
				block, point12, cross, point8, ring)
			if limit := arm.ceiling * float64(point12); float64(block) > limit {
				t.Errorf("4x4 self-inclusive fills popped %d entries, the point queries for the same entries %d: ceiling %.1fx", block, point12, arm.ceiling)
			}
			if limit := arm.ceiling * float64(point8); float64(cross) > limit {
				t.Errorf("2x2 cross fills popped %d entries, the point queries for the same entries %d: ceiling %.1fx", cross, point8, arm.ceiling)
			}
			// The pinned counts depend on the last bits of the heuristic, which
			// a fused multiply-add (arm64, ppc64le, s390x) rounds differently.
			if runtime.GOARCH != "amd64" {
				return
			}
			if point12 != arm.point || ring != arm.ring {
				t.Errorf("single-target searches popped %d (point queries) and %d (rings), want %d and %d: their effort must not move",
					point12, ring, arm.point, arm.ring)
			}
		})
	}
}

// strandedCity is a jittered lattice with two extra nodes: one with no edge
// at all and one that can be left but never entered.
func strandedCity(w, h int, seed int64) (g *Graph, stranded, exitOnly geo.NodeID) {
	rng := rand.New(rand.NewSource(seed))
	var b GraphBuilder
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			b.AddNode(geo.Point{X: float64(x) * 100, Y: float64(y) * 100})
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			n := geo.NodeID(y*w + x)
			if x+1 < w {
				b.AddBidirectional(n, n+1, 10+10*rng.Float64())
			}
			if y+1 < h {
				b.AddBidirectional(n, n+geo.NodeID(w), 10+10*rng.Float64())
			}
		}
	}
	stranded = b.AddNode(geo.Point{X: -100, Y: -100})
	exitOnly = b.AddNode(geo.Point{X: -100, Y: 0})
	b.AddEdge(exitOnly, 0, 12.5)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g, stranded, exitOnly
}

// checkMatrixAgainst holds one fill to the oracle on math.Float64bits: every
// entry of the unbounded fill, and under a budget every entry within it,
// while an entry beyond the budget may be its exact value or +Inf and
// nothing else.
func checkMatrixAgainst(t testing.TB, what string, g *Graph, sources, targets []geo.NodeID, want []float64, budget float64) {
	t.Helper()
	nt := len(targets)
	got := make([]float64, len(sources)*nt)
	for i := range got {
		got[i] = -1 // a cell the fill forgets must not pass as a cost
	}
	FillCostMatrixWithin(g, sources, targets, budget, got)
	for i, s := range sources {
		for j, d := range targets {
			at := i*nt + j
			exact := math.Float64bits(got[at]) == math.Float64bits(want[at])
			if exact || (want[at] > budget && math.IsInf(got[at], 1)) {
				continue
			}
			t.Fatalf("%s: %dx%d fill under budget %v: cost(%d -> %d) = %v (%#x), reference %v (%#x)\nsources %v\ntargets %v",
				what, len(sources), nt, budget, s, d, got[at], math.Float64bits(got[at]), want[at], math.Float64bits(want[at]), sources, targets)
		}
	}
}

// referenceMatrix prices the matrix entry by entry on the reference Dijkstra.
func referenceMatrix(g *Graph, sources, targets []geo.NodeID) []float64 {
	ref := Reference(g)
	want := make([]float64, 0, len(sources)*len(targets))
	for _, s := range sources {
		for _, d := range targets {
			want = append(want, ref.Cost(s, d))
		}
	}
	return want
}

// budgetsAround returns the budgets that probe one entry's threshold: the
// entry itself (must come back exact), one ulp below it (may come back +Inf,
// never anything else) and far below.
func budgetsAround(entry float64) []float64 {
	return []float64{entry, math.Nextafter(entry, math.Inf(-1)), entry / 4}
}

// TestMatrixMatchesReference is the exactness property of the multi-target
// search with its heuristic ranging over pending targets and its frontier
// re-keyed as they are finalized: on jittered, one-way, split, uniform, tiny
// (no landmarks), wide (eight landmarks) and stranded-node cities, on both
// engines, every fill shape
// the dispatcher asks for — and one with more targets than the heuristic
// takes on at once — matches the reference bit for bit, with duplicate
// sources, duplicate targets, sources among the targets and unreachable
// nodes mixed in, unbounded and under budgets at, just below and far below
// an entry.
func TestMatrixMatchesReference(t *testing.T) {
	type subject struct {
		boundCity
		special []geo.NodeID // nodes worth forcing into the lists
	}
	var subjects []subject
	for _, c := range boundCities() {
		subjects = append(subjects, subject{boundCity: c})
	}
	for _, arm := range []string{"alt", "ch"} {
		// Eight landmarks: the 3x20 shape starts beyond maxHeuristicWork, on
		// h = 0, and switches the heuristic on as targets are finalized.
		wide := NewPerturbedGrid(13, 11, 150, 8, 0.4, 9)
		if wide.numLandmarks()*20 <= maxHeuristicWork {
			t.Fatalf("wide city has %d landmarks: 20 targets no longer exceed the heuristic's work bound", wide.numLandmarks())
		}
		g, stranded, exitOnly := strandedCity(9, 8, 6)
		if arm == "ch" {
			wide.EnableHierarchy()
			g.EnableHierarchy()
		}
		subjects = append(subjects,
			subject{boundCity: boundCity{"wide/" + arm, wide, 0}},
			subject{boundCity{"stranded/" + arm, g, 0}, []geo.NodeID{stranded, exitOnly}})
	}
	shapes := []struct {
		ns, nt int
		self   bool // targets are the sources: the leg-matrix shape
	}{{1, 1, false}, {1, 4, false}, {2, 2, false}, {4, 4, true}, {16, 1, false}, {3, 20, false}}

	for si, sub := range subjects {
		g, n := sub.g, sub.g.NumNodes()
		rng := rand.New(rand.NewSource(int64(si)*613 + 17))
		for _, sh := range shapes {
			for rep := 0; rep < 6; rep++ {
				sources := make([]geo.NodeID, sh.ns)
				for i := range sources {
					sources[i] = geo.NodeID(rng.Intn(n))
				}
				targets := make([]geo.NodeID, sh.nt)
				for j := range targets {
					targets[j] = geo.NodeID(rng.Intn(n))
				}
				// Rotate the awkward cases through the repetitions.
				if rep%3 == 1 && sh.ns > 1 {
					sources[sh.ns-1] = sources[0]
				}
				if rep%3 == 2 && sh.nt > 1 {
					targets[sh.nt-1] = targets[0]
				}
				if rep%2 == 1 {
					targets[rng.Intn(sh.nt)] = sources[rng.Intn(sh.ns)]
				}
				if len(sub.special) > 0 && rep >= 2 {
					sp := sub.special[rep%len(sub.special)]
					if rep%4 < 2 {
						targets[rng.Intn(sh.nt)] = sp
					} else {
						sources[rng.Intn(sh.ns)] = sp
					}
				}
				if sh.self {
					targets = sources
				}
				what := fmt.Sprintf("%s rep %d", sub.name, rep)
				want := referenceMatrix(g, sources, targets)
				checkMatrixAgainst(t, what, g, sources, targets, want, math.Inf(1))
				// Budgets around one finite, positive entry, when there is one.
				for _, at := range rng.Perm(len(want)) {
					if e := want[at]; e > 0 && !math.IsInf(e, 1) {
						for _, budget := range budgetsAround(e) {
							checkMatrixAgainst(t, what, g, sources, targets, want, budget)
						}
						break
					}
				}
			}
		}
	}
}

// TestEpochWraparound drives both epoch counters of a scratch — heuristic
// and target set — over their uint32 wrap in the middle of multi-target
// fills on both engines: stale stamps must never pass for current ones.
func TestEpochWraparound(t *testing.T) {
	for _, ch := range []bool{false, true} {
		g := NewPerturbedGrid(9, 8, 150, 8, 0.35, 3)
		if ch {
			g.EnableHierarchy()
		}
		rng := rand.New(rand.NewSource(41))
		n := g.NumNodes()
		sc := g.getScratch()
		warm := []geo.NodeID{1, 40, 7, 66}
		out := make([]float64, 16)
		g.matrixWith(sc, warm, warm, math.Inf(1), out) // leave stamps behind
		sc.hseq, sc.tcur = math.MaxUint32-5, math.MaxUint32-1
		for rep := 0; rep < 8; rep++ {
			locs := make([]geo.NodeID, 4)
			for i := range locs {
				locs[i] = geo.NodeID(rng.Intn(n))
			}
			g.matrixWith(sc, locs, locs, math.Inf(1), out)
			want := referenceMatrix(g, locs, locs)
			for i := range want {
				if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
					t.Fatalf("hierarchy %v, fill %d across the epoch wrap: entry %d = %v, reference %v (locs %v)", ch, rep, i, out[i], want[i], locs)
				}
			}
		}
		if sc.hseq > 1000 || sc.tcur > 1000 {
			t.Fatalf("epochs did not wrap: hseq %d, tcur %d", sc.hseq, sc.tcur)
		}
	}
}

// FuzzCostMatrix decodes bytes into a small graph, a source list, a target
// list and a budget, and holds the batched fill to the reference Dijkstra
// under the same contract as TestMatrixMatchesReference, on the ALT arm or
// (flag bit 0) the hierarchy. The seed corpus under
// testdata/fuzz/FuzzCostMatrix runs in plain `go test`.
func FuzzCostMatrix(f *testing.F) {
	f.Add([]byte{2, 40, 7, 3, 3, 3, 0, 0, 13, 39, 5, 22, 39, 1, 9, 30, 200})
	f.Add([]byte{3 | 1<<3, 130, 11, 9, 2, 19, 5, 77, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 90})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, sources, targets, budgetKind, budgetAt, ok := decodeMatrixCase(data)
		if !ok {
			return
		}
		want := referenceMatrix(g, sources, targets)
		budget := math.Inf(1)
		if e := want[budgetAt%len(want)]; budgetKind > 0 && e > 0 && !math.IsInf(e, 1) {
			budget = budgetsAround(e)[budgetKind-1]
		}
		checkMatrixAgainst(t, "fuzz", g, sources, targets, want, budget)
	})
}

// decodeMatrixCase reads a 7-byte header — flags (bit 0 hierarchy, bit 1 a
// lattice backbone, bit 2 the backbone one-way only, bits 3-4 the budget
// kind: none, at an entry, one ulp below it, a quarter of it), node count
// (8..135: below 32 the graph has no landmarks, from 128 it has the full
// eight), lattice width, weight salt, source count (1..16), target count
// (1..20), the entry the budget is taken from — then the sources, the
// targets, and three bytes (from, to, weight) per extra one-way edge. Weights
// are multiples of 0.37 s so that float32 folds round; a zero byte is a
// zero-cost edge.
func decodeMatrixCase(data []byte) (g *Graph, sources, targets []geo.NodeID, budgetKind, budgetAt int, ok bool) {
	if len(data) < 7 {
		return nil, nil, nil, 0, 0, false
	}
	flags, n, width, salt := data[0], 8+int(data[1])%128, 1+int(data[2])%12, int(data[3])
	ns, nt := 1+int(data[4])%16, 1+int(data[5])%20
	budgetKind, budgetAt = int(flags>>3)&3, int(data[6])
	body := data[7:]
	if len(body) < ns+nt {
		return nil, nil, nil, 0, 0, false
	}
	var b GraphBuilder
	for v := 0; v < n; v++ {
		b.AddNode(geo.Point{X: float64(v%width) * 100, Y: float64(v/width) * 100})
	}
	weight := func(w int) float64 { return 0.37 * float64(w%256) }
	if flags&2 != 0 {
		street := func(u, v int) {
			b.AddEdge(geo.NodeID(u), geo.NodeID(v), weight(1+(u*31+v*17+salt)%29))
			if flags&4 == 0 {
				b.AddEdge(geo.NodeID(v), geo.NodeID(u), weight(1+(u*13+v*37+salt)%29))
			}
		}
		for v := 0; v < n; v++ {
			if (v+1)%width != 0 && v+1 < n {
				street(v, v+1)
			}
			if v+width < n {
				street(v, v+width)
			}
		}
	}
	for _, c := range body[:ns] {
		sources = append(sources, geo.NodeID(int(c)%n))
	}
	for _, c := range body[ns : ns+nt] {
		targets = append(targets, geo.NodeID(int(c)%n))
	}
	for e := body[ns+nt:]; len(e) >= 3; e = e[3:] {
		b.AddEdge(geo.NodeID(int(e[0])%n), geo.NodeID(int(e[1])%n), weight(int(e[2])))
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, nil, 0, 0, false
	}
	if flags&1 != 0 {
		g.EnableHierarchy()
	}
	return g, sources, targets, budgetKind, budgetAt, true
}
