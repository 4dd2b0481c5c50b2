package roadnet

import (
	"math"
	"math/rand"

	"watter/internal/geo"
)

// asGraph materializes the lattice as an explicit Graph with identical
// costs, so the closed form can be checked against graph search.
func (c *GridCity) asGraph() *Graph {
	var b GraphBuilder
	for y := 0; y < c.H; y++ {
		for x := 0; x < c.W; x++ {
			b.AddNode(geo.Point{X: float64(x) * c.CellMeters, Y: float64(y) * c.CellMeters})
		}
	}
	sec := c.CellMeters / c.Speed
	for y := 0; y < c.H; y++ {
		for x := 0; x < c.W; x++ {
			if x+1 < c.W {
				b.AddBidirectional(c.Node(x, y), c.Node(x+1, y), sec)
			}
			if y+1 < c.H {
				b.AddBidirectional(c.Node(x, y), c.Node(x, y+1), sec)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err) // unreachable: builder input is well formed by construction
	}
	return g
}

// triangleSlack reports cost(a,c) - (cost(a,b) + cost(b,c)). For any
// shortest-path metric this must be <= 0 (up to floating error).
func triangleSlack(net Network, a, b, c geo.NodeID) float64 {
	return net.Cost(a, c) - (net.Cost(a, b) + net.Cost(b, c))
}

// centisecondGrid builds a jittered w x h lattice whose every edge weight
// is a whole number of centiseconds (at least 1) and whose coordinates are
// whole centimetres: the integer precision a road-network file carries.
// Weights are drawn in NewPerturbedGrid's street order, one per street for
// both directions, and rounded once to the centisecond before the builder
// rounds them to float32.
func centisecondGrid(w, h int, cellMeters, speed, jitter float64, seed int64) *Graph {
	var b GraphBuilder
	cell := int64(math.Round(cellMeters * 100))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			b.AddNode(geo.Point{X: float64(int64(x)*cell) / 100, Y: float64(int64(y)*cell) / 100})
		}
	}
	rng := rand.New(rand.NewSource(seed))
	base := cellMeters / speed * 100
	seconds := func() float64 {
		c := base
		if jitter > 0 {
			c = base * (1 + (rng.Float64()*2-1)*jitter)
		}
		return float64(max(int64(math.Round(c)), 1)) / 100
	}
	node := func(x, y int) geo.NodeID { return geo.NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddBidirectional(node(x, y), node(x+1, y), seconds())
			}
			if y+1 < h {
				b.AddBidirectional(node(x, y), node(x, y+1), seconds())
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err) // unreachable: builder input is well formed by construction
	}
	return g
}
