package roadnet

import (
	"math"
	"math/rand"
	"testing"

	"watter/internal/geo"
)

// oneWayCity is a jittered lattice whose streets have independent travel
// times per direction and, one in four, carry traffic one way only — so
// dist(a,b) != dist(b,a) and some pairs are unreachable without the graph
// falling into tidy components.
func oneWayCity(w, h int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	var b GraphBuilder
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			b.AddNode(geo.Point{X: float64(x) * 100, Y: float64(y) * 100})
		}
	}
	street := func(u, v geo.NodeID) {
		switch rng.Intn(8) {
		case 0:
			b.AddEdge(u, v, 10+20*rng.Float64())
		case 1:
			b.AddEdge(v, u, 10+20*rng.Float64())
		default:
			b.AddEdge(u, v, 10+20*rng.Float64())
			b.AddEdge(v, u, 10+20*rng.Float64())
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			n := geo.NodeID(y*w + x)
			if x+1 < w {
				street(n, n+1)
			}
			if y+1 < h {
				street(n, n+geo.NodeID(w))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// boundCity is one property-test subject: a graph answering through the ALT
// arm or, with the hierarchy forced, the CH arm. half is the component size
// of a two-component city (0 otherwise).
type boundCity struct {
	name string
	g    *Graph
	half int
}

func boundCities() []boundCity {
	var cities []boundCity
	for _, ch := range []bool{false, true} {
		arm := "alt"
		if ch {
			arm = "ch"
		}
		add := func(name string, g *Graph, half int) {
			if ch {
				g.EnableHierarchy()
			}
			cities = append(cities, boundCity{name + "/" + arm, g, half})
		}
		for seed := int64(1); seed <= 3; seed++ {
			add("jitter", NewPerturbedGrid(9+int(seed), 8, 150, 8, 0.4, seed), 0)
			add("oneway", oneWayCity(9, 7+int(seed), seed), 0)
			g, half := twoComponentCity(6, 5, seed)
			add("split", g, half)
		}
		// Equal weights everywhere: the tie-heavy case.
		add("uniform", NewPerturbedGrid(9, 9, 150, 8, 0, 3), 0)
		// Below 32 nodes Build selects no landmarks: every bound is 0.
		add("tiny", NewPerturbedGrid(4, 4, 150, 8, 0.3, 5), 0)
	}
	return cities
}

// TestCostLowerBoundAdmissible: on jittered, one-way and disconnected
// graphs, for both engine arms, the public bound never exceeds the cost the
// same graph reports, is +Inf only when the cost is, and does prove
// cross-component pairs unreachable (the case the engines pre-finalize on).
func TestCostLowerBoundAdmissible(t *testing.T) {
	for ci, c := range boundCities() {
		n := c.g.NumNodes()
		ref := Reference(c.g)
		rng := rand.New(rand.NewSource(int64(ci)*101 + 3))
		positive := 0
		for trial := 0; trial < 400; trial++ {
			a, b := geo.NodeID(rng.Intn(n)), geo.NodeID(rng.Intn(n))
			lb, cost := c.g.CostLowerBound(a, b), ref.Cost(a, b)
			if math.IsNaN(lb) || lb < 0 || lb > cost {
				t.Fatalf("%s: bound(%d,%d) = %v, cost = %v", c.name, a, b, lb, cost)
			}
			if math.IsInf(lb, 1) && !math.IsInf(cost, 1) {
				t.Fatalf("%s: bound(%d,%d) = +Inf but cost = %v", c.name, a, b, cost)
			}
			if c.half > 0 && (int(a) < c.half) != (int(b) < c.half) && !math.IsInf(lb, 1) {
				t.Fatalf("%s: cross-component bound(%d,%d) = %v, want +Inf", c.name, a, b, lb)
			}
			if lb > 0 {
				positive++
			}
		}
		if c.g.numLandmarks() > 0 && positive == 0 {
			t.Fatalf("%s: every sampled bound was 0; the property is vacuous", c.name)
		}
	}
}

// TestReferenceIsPlainNetwork: the reference oracle must stay filter-free
// and pairwise by type — a consumer handed Reference(g) can find no bound,
// no batched matrix fill and no nearest-of-many engine to lean on.
func TestReferenceIsPlainNetwork(t *testing.T) {
	ref := Reference(NewPerturbedGrid(8, 8, 150, 8, 0.3, 1))
	if _, ok := ref.(BoundedNetwork); ok {
		t.Fatal("Reference implements BoundedNetwork")
	}
	if _, ok := ref.(matrixFiller); ok {
		t.Fatal("Reference implements matrixFiller")
	}
	if _, ok := ref.(nearestFiller); ok {
		t.Fatal("Reference implements nearestFiller")
	}
	if _, ok := ref.(FloorNetwork); ok {
		t.Fatal("Reference implements FloorNetwork")
	}
	if _, ok := ref.(MetricNetwork); ok {
		t.Fatal("Reference implements MetricNetwork")
	}
}

// nearestArgmin is the worker probe's selection rule over one cost column:
// smallest cost within maxCost, ties toward the lower index.
func nearestArgmin(costs []float64, maxCost float64) int {
	best := -1
	for i, c := range costs {
		if math.IsInf(c, 1) || c > maxCost {
			continue
		}
		if best < 0 || c < costs[best] {
			best = i
		}
	}
	return best
}

// TestFillNearestWithinArgmin pins the argmin contract on every arm: the
// (cost, index) argmin over FillNearestWithin's column equals the one over
// FillCostMatrixWithin's, at the same cost bits; every entry is exact or
// +Inf; and every source tied with the winner is reported. Source lists
// carry duplicates, the target itself and (on split cities) unreachable
// nodes; budgets include 0, +Inf and exactly the minimum.
func TestFillNearestWithinArgmin(t *testing.T) {
	type arm struct {
		name string
		net  Network
		ref  func(a, b geo.NodeID) float64
	}
	var arms []arm
	for _, c := range boundCities() {
		arms = append(arms, arm{c.name, c.g, Reference(c.g).Cost})
	}
	closed := NewGridCity(9, 9, 150, 8)
	arms = append(arms, arm{"closed-form", closed, closed.Cost})

	for ai, a := range arms {
		n := a.net.NumNodes()
		rng := rand.New(rand.NewSource(int64(ai)*211 + 17))
		decided := 0
		for trial := 0; trial < 150; trial++ {
			target := geo.NodeID(rng.Intn(n))
			sources := make([]geo.NodeID, 1+rng.Intn(12))
			for i := range sources {
				sources[i] = geo.NodeID(rng.Intn(n))
			}
			if len(sources) > 2 {
				sources[len(sources)-1] = sources[0] // duplicate location
			}
			if rng.Intn(5) == 0 {
				sources[rng.Intn(len(sources))] = target
			}
			ref := make([]float64, len(sources))
			minCost := math.Inf(1)
			for i, s := range sources {
				ref[i] = a.ref(s, target)
				minCost = math.Min(minCost, ref[i])
			}
			var maxCost float64
			switch rng.Intn(5) {
			case 0:
				maxCost = math.Inf(1)
			case 1:
				maxCost = minCost // the minimum sits exactly on the budget
			case 2:
				maxCost = 0
			default:
				maxCost = float64(rng.Intn(400))
			}

			near := make([]float64, len(sources))
			full := make([]float64, len(sources))
			FillNearestWithin(a.net, sources, target, maxCost, near)
			FillCostMatrixWithin(a.net, sources, []geo.NodeID{target}, maxCost, full)

			for i := range sources {
				if near[i] != ref[i] && !math.IsInf(near[i], 1) {
					t.Fatalf("%s trial %d: entry %d = %v, want %v or +Inf", a.name, trial, i, near[i], ref[i])
				}
				if ref[i] == minCost && minCost <= maxCost && near[i] != ref[i] {
					t.Fatalf("%s trial %d: source %d attains the minimum %v within %v but was reported %v",
						a.name, trial, i, minCost, maxCost, near[i])
				}
			}
			wn, wf := nearestArgmin(near, maxCost), nearestArgmin(full, maxCost)
			if wn != wf {
				t.Fatalf("%s trial %d: argmin %d over nearest column %v, %d over full column %v (budget %v)",
					a.name, trial, wn, near, wf, full, maxCost)
			}
			if wn >= 0 {
				decided++
				if math.Float64bits(near[wn]) != math.Float64bits(full[wn]) {
					t.Fatalf("%s trial %d: winner cost %v vs %v", a.name, trial, near[wn], full[wn])
				}
			}
		}
		if decided == 0 {
			t.Fatalf("%s: no trial had a source within budget", a.name)
		}
	}
}
