package roadnet

import (
	"math/rand"

	"watter/internal/geo"
)

// ExampleNodes are the labels of the paper's Figure 1 road network, indexed
// by NodeID: ExampleNodes[0] == "a" etc.
var ExampleNodes = []string{"a", "b", "c", "d", "e", "f"}

// NewExampleNetwork builds the 6-node / 7-edge road network of the paper's
// running example (Figure 1, Example 1). Every edge takes one minute. The
// edge set is reconstructed from the distances the example relies on:
// cost(a,c)=2, cost(a,d)=1, cost(c,d)=3, cost(d,e)=1, cost(e,f)=1,
// cost(d,f)=2 (all in minutes).
func NewExampleNetwork() *Graph {
	var b GraphBuilder
	// Coordinates are only used for spatial indexing; layout roughly
	// matches the figure.
	coords := []geo.Point{
		{X: 0, Y: 0}, // a
		{X: 1, Y: 0}, // b
		{X: 2, Y: 0}, // c
		{X: 0, Y: 1}, // d
		{X: 1, Y: 1}, // e
		{X: 2, Y: 1}, // f
	}
	for _, p := range coords {
		b.AddNode(geo.Point{X: p.X * 1000, Y: p.Y * 1000})
	}
	const minute = 60.0
	a, bb, c, d, e, f := geo.NodeID(0), geo.NodeID(1), geo.NodeID(2), geo.NodeID(3), geo.NodeID(4), geo.NodeID(5)
	b.AddBidirectional(a, bb, minute)
	b.AddBidirectional(bb, c, minute)
	b.AddBidirectional(a, d, minute)
	b.AddBidirectional(d, e, minute)
	b.AddBidirectional(e, f, minute)
	b.AddBidirectional(c, f, minute)
	b.AddBidirectional(bb, e, minute)
	g, err := b.Build()
	if err != nil {
		panic(err) // unreachable: static input
	}
	return g
}

// LatticeNetwork is a Network whose nodes form a W x H lattice addressable
// by (x, y). The dataset synthesizer places demand by cell, so any network
// a synthetic city runs on must expose the lattice addressing: GridCity
// (closed-form costs) and Lattice (explicit graph behind the full routing
// stack — ALT and, at scale, the contraction hierarchy) both do.
type LatticeNetwork interface {
	Network
	Node(x, y int) geo.NodeID
}

// Lattice is a Graph that remembers its grid shape, so callers that place
// demand by cell (the dataset synthesizer, the benchmark harness) can
// address nodes as (x, y) without re-deriving the row-major layout.
type Lattice struct {
	*Graph
	W, H int
}

// Node returns the NodeID at lattice position (x, y).
func (l *Lattice) Node(x, y int) geo.NodeID { return geo.NodeID(y*l.W + x) }

// NewPerturbedLattice is NewPerturbedGrid with the grid shape retained.
func NewPerturbedLattice(w, h int, cellMeters, speed, jitter float64, seed int64) *Lattice {
	return &Lattice{Graph: NewPerturbedGrid(w, h, cellMeters, speed, jitter, seed), W: w, H: h}
}

// NewPerturbedGrid builds an explicit W x H lattice graph whose per-edge
// travel times are the uniform base time scaled by a random factor in
// [1-jitter, 1+jitter]. It models uneven street speeds (congested vs fast
// corridors) while staying deterministic under a fixed seed.
func NewPerturbedGrid(w, h int, cellMeters, speed, jitter float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	var b GraphBuilder
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			b.AddNode(geo.Point{X: float64(x) * cellMeters, Y: float64(y) * cellMeters})
		}
	}
	node := func(x, y int) geo.NodeID { return geo.NodeID(y*w + x) }
	base := cellMeters / speed
	perturb := func() float64 {
		if jitter <= 0 {
			return base
		}
		return base * (1 + float64((float64(rng.Float64())*2-1)*jitter)) // Float64 inlines to a product: neither may fuse
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddBidirectional(node(x, y), node(x+1, y), perturb())
			}
			if y+1 < h {
				b.AddBidirectional(node(x, y), node(x, y+1), perturb())
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err) // unreachable: builder input is well formed by construction
	}
	return g
}
