package roadnet

import "watter/internal/geo"

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
