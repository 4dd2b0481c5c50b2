package roadnet

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"watter/internal/geo"
)

func TestExampleNetworkDistances(t *testing.T) {
	g := NewExampleNetwork()
	idx := map[string]geo.NodeID{}
	for i, name := range ExampleNodes {
		idx[name] = geo.NodeID(i)
	}
	// Distances (in minutes) the paper's Example 1 depends on.
	want := []struct {
		u, v string
		min  float64
	}{
		{"a", "c", 2}, {"a", "d", 1}, {"c", "d", 3}, {"d", "e", 1},
		{"e", "f", 1}, {"d", "f", 2}, {"a", "b", 1}, {"b", "c", 1},
		{"d", "c", 3}, {"f", "d", 2},
	}
	for _, w := range want {
		got := g.Cost(idx[w.u], idx[w.v]) / 60
		if math.Abs(got-w.min) > 1e-9 {
			t.Errorf("cost(%s,%s) = %v minutes, want %v", w.u, w.v, got, w.min)
		}
	}
}

func TestExampleNetworkSymmetric(t *testing.T) {
	g := NewExampleNetwork()
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if d1, d2 := g.Cost(geo.NodeID(u), geo.NodeID(v)), g.Cost(geo.NodeID(v), geo.NodeID(u)); d1 != d2 {
				t.Fatalf("asymmetric cost(%d,%d)=%v vs %v", u, v, d1, d2)
			}
		}
	}
}

func TestGridCityMatchesExplicitGraph(t *testing.T) {
	c := NewGridCity(7, 5, 200, 8)
	g := c.asGraph()
	if c.NumNodes() != g.NumNodes() {
		t.Fatalf("node count mismatch: %d vs %d", c.NumNodes(), g.NumNodes())
	}
	for u := 0; u < c.NumNodes(); u++ {
		for v := 0; v < c.NumNodes(); v++ {
			cu, cv := geo.NodeID(u), geo.NodeID(v)
			if closed, dij := c.Cost(cu, cv), g.Cost(cu, cv); math.Abs(closed-dij) > 1e-4 {
				t.Fatalf("cost(%d,%d): closed-form %v vs dijkstra %v", u, v, closed, dij)
			}
		}
	}
}

// TestGridCityFloorIsExact: on every pair of a few lattices, including
// block sizes and speeds that are not binary fractions, Cost sits within
// the FloorNetwork rounding allowance of MinSecondsPerMetre times the L1
// distance between the coordinates — from below, which is the contract,
// and from above, which is what "exact" means.
func TestGridCityFloorIsExact(t *testing.T) {
	for _, c := range []*GridCity{
		NewGridCity(7, 5, 200, 8), NewGridCity(9, 4, 0.1, 3), NewGridCity(13, 13, 1, 10), NewGridCity(1, 6, 150, 7),
	} {
		var net FloorNetwork = c
		r, b := net.MinSecondsPerMetre(), c.Bounds()
		allow := 16 * 0x1p-53 * r * (math.Abs(b.Min.X) + math.Abs(b.Min.Y) + b.Width() + b.Height())
		for u := 0; u < c.NumNodes(); u++ {
			for v := 0; v < c.NumNodes(); v++ {
				pu, pv := c.Coord(geo.NodeID(u)), c.Coord(geo.NodeID(v))
				floor := r * (math.Abs(pu.X-pv.X) + math.Abs(pu.Y-pv.Y))
				if cost := c.Cost(geo.NodeID(u), geo.NodeID(v)); math.Abs(cost-floor) > allow {
					t.Fatalf("%+v: cost(%d,%d) = %v, floor %v: off by more than %v", *c, u, v, cost, floor, allow)
				}
			}
		}
	}
}

func TestGridCityTriangleInequality(t *testing.T) {
	c := NewGridCity(30, 30, 150, 10)
	n := uint32(c.NumNodes())
	f := func(a, b, x uint32) bool {
		na := geo.NodeID(a % n)
		nb := geo.NodeID(b % n)
		nc := geo.NodeID(x % n)
		return triangleSlack(c, na, nb, nc) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestGridCityTriangleSlack pins the premise of the route DP's lookahead:
// GridCity's MetricNetwork claim, Cost(a, c) <= (Cost(a, b) + Cost(b, c)) *
// (1 + TriangleSlack()), on every triple of a small lattice and on random
// triples of a MET-sized one (320 x 320), for CDC's calibration (160 m at
// 8 m/s: every cost a multiple of 20 s, exact, so the bare inequality
// holds) and NYC's (150 m at 7 m/s: costs round). A Graph claims nothing:
// its float32 path folds break the inequality by far more than rounding.
func TestGridCityTriangleSlack(t *testing.T) {
	for _, cal := range []struct {
		name        string
		cell, speed float64
		exact       bool
	}{{"cdc", 160, 8, true}, {"nyc", 150, 7, false}} {
		over := 0 // triples past the bare inequality, within the slack
		check := func(c *GridCity, a, b, x geo.NodeID) {
			var net MetricNetwork = c
			ac, sum := net.Cost(a, x), net.Cost(a, b)+net.Cost(b, x)
			if ac > sum*(1+net.TriangleSlack()) || cal.exact && ac > sum {
				t.Fatalf("%s %dx%d: cost(%d,%d) = %v > cost(%d,%d) + cost(%d,%d) = %v",
					cal.name, c.W, c.H, a, x, ac, a, b, b, x, sum)
			}
			if ac > sum {
				over++
			}
		}
		small := NewGridCity(7, 6, cal.cell, cal.speed)
		n := small.NumNodes()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for x := 0; x < n; x++ {
					check(small, geo.NodeID(a), geo.NodeID(b), geo.NodeID(x))
				}
			}
		}
		met := NewGridCity(320, 320, cal.cell, cal.speed)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200000; i++ {
			check(met, geo.NodeID(rng.Intn(met.NumNodes())), geo.NodeID(rng.Intn(met.NumNodes())), geo.NodeID(rng.Intn(met.NumNodes())))
		}
		t.Logf("%s: %d triples past the bare inequality, all within the slack", cal.name, over)
		if !cal.exact && over == 0 {
			t.Fatalf("%s: no triple needs the slack; the calibration tests less than it says", cal.name)
		}
	}
	var g Network = NewPerturbedGrid(8, 8, 150, 8, 0.3, 1)
	if _, ok := g.(MetricNetwork); ok {
		t.Fatal("Graph implements MetricNetwork")
	}
}

func TestGraphTriangleInequality(t *testing.T) {
	g := NewPerturbedGrid(10, 10, 200, 8, 0.4, 42)
	n := uint32(g.NumNodes())
	f := func(a, b, x uint32) bool {
		na := geo.NodeID(a % n)
		nb := geo.NodeID(b % n)
		nc := geo.NodeID(x % n)
		return triangleSlack(g, na, nb, nc) <= 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestGraphConcurrentCost(t *testing.T) {
	g := NewPerturbedGrid(10, 10, 100, 10, 0.2, 3)
	done := make(chan bool)
	for w := 0; w < 8; w++ {
		go func(w int) {
			defer func() { done <- true }()
			for i := 0; i < 200; i++ {
				u := geo.NodeID((w*31 + i) % g.NumNodes())
				v := geo.NodeID((w*17 + i*3) % g.NumNodes())
				if d := g.Cost(u, v); d < 0 {
					t.Errorf("negative distance %v", d)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 8; w++ {
		<-done
	}
}

func TestValidateNode(t *testing.T) {
	c := NewGridCity(3, 3, 100, 10)
	if err := ValidateNode(c, 0); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := ValidateNode(c, 8); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := ValidateNode(c, 9); err == nil {
		t.Fatal("want error for out-of-range node")
	}
	if err := ValidateNode(c, -1); err == nil {
		t.Fatal("want error for negative node")
	}
}

func TestBuilderErrors(t *testing.T) {
	var b GraphBuilder
	if _, err := b.Build(); err == nil {
		t.Fatal("want error for empty graph")
	}
	var b2 GraphBuilder
	n := b2.AddNode(geo.Point{})
	b2.AddEdge(n, 5, 10)
	if _, err := b2.Build(); err == nil {
		t.Fatal("want error for dangling edge")
	}
	var b3 GraphBuilder
	u := b3.AddNode(geo.Point{})
	v := b3.AddNode(geo.Point{X: 1})
	b3.AddEdge(u, v, -1)
	if _, err := b3.Build(); err == nil {
		t.Fatal("want error for negative edge cost")
	}
	// A NaN edge passes a `< 0` test and then hangs every search that
	// reaches it, so Build must refuse it; nothing here may call Cost.
	var b4 GraphBuilder
	u = b4.AddNode(geo.Point{})
	v = b4.AddNode(geo.Point{X: 1})
	b4.AddBidirectional(u, v, 10)
	b4.AddEdge(v, u, math.NaN())
	if _, err := b4.Build(); err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("Build with a NaN edge: err = %v, want one naming NaN", err)
	}
	// +Inf is a legal cost: an edge that is never worth taking.
	var b5 GraphBuilder
	u = b5.AddNode(geo.Point{})
	v = b5.AddNode(geo.Point{X: 1})
	b5.AddEdge(u, v, math.Inf(1))
	if _, err := b5.Build(); err != nil {
		t.Fatalf("Build with a +Inf edge: %v", err)
	}
}

func TestBounds(t *testing.T) {
	c := NewGridCity(4, 3, 250, 10)
	r := c.Bounds()
	if r.Min != (geo.Point{}) {
		t.Fatalf("min = %v", r.Min)
	}
	if r.Max.X != 750 || r.Max.Y != 500 {
		t.Fatalf("max = %v", r.Max)
	}
	if p := (geo.Point{X: 100, Y: 100}); r.Clamp(p) != p {
		t.Fatal("interior point outside the bounds")
	}
}

func BenchmarkGridCityCost(b *testing.B) {
	c := NewGridCity(100, 100, 200, 8)
	n := geo.NodeID(c.NumNodes())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Cost(geo.NodeID(i)%n, geo.NodeID(i*7)%n)
	}
}

// TestGridCityCostQuantum pins GridCity's ExactNetwork claim on the
// calibrations the cities use: CDC's 20 s and XIA's 85/4 s blocks state a
// quantum and every cost of the lattice is a whole multiple of it, NYC's
// 150/7 s blocks state none, and a Graph claims nothing.
func TestGridCityCostQuantum(t *testing.T) {
	for _, cal := range []struct {
		name               string
		w, h               int
		cell, speed, quant float64
	}{
		{"cdc", 42, 42, 160, 8, 4},
		{"xia", 36, 36, 170, 8, 0.25},
		{"met", 320, 320, 200, 8, 1},
		{"test", 8, 8, 100, 10, 2},
		{"nyc", 60, 24, 150, 7, 0},
		{"inf", 4, 4, math.MaxFloat64, 0.5, 0},
	} {
		c := NewGridCity(cal.w, cal.h, cal.cell, cal.speed)
		var net ExactNetwork = c
		q := net.CostQuantum()
		if q != cal.quant {
			t.Fatalf("%s: CostQuantum = %v, want %v", cal.name, q, cal.quant)
		}
		if q == 0 {
			continue
		}
		for n := 0; n < c.NumNodes(); n++ {
			cost := c.Cost(0, geo.NodeID(n))
			if whole := cost / q; whole != math.Trunc(whole) || whole > 0x1p47 {
				t.Fatalf("%s: cost(0, %d) = %v is not a whole multiple of %v below 2^47 of them", cal.name, n, cost, q)
			}
		}
	}
	var g Network = NewPerturbedGrid(8, 8, 150, 8, 0.3, 1)
	if _, ok := g.(ExactNetwork); ok {
		t.Fatal("Graph implements ExactNetwork")
	}
}
