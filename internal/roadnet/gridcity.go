package roadnet

import (
	"math"

	"watter/internal/geo"
)

// GridCity is a closed-form road network: a W x H lattice of intersections
// spaced CellMeters apart, traversed at Speed meters/second along axis-
// aligned streets. Travel time between any two intersections is the L1
// distance divided by speed — the exact Dijkstra answer for a uniform grid
// graph, computed in O(1).
//
// Large-scale benchmark sweeps use GridCity so that the millions of
// cost(l1,l2) queries issued by the shareability graph stay allocation-free;
// correctness tests cross-check it against an explicit Graph built over the
// same lattice.
type GridCity struct {
	W, H       int
	CellMeters float64
	Speed      float64 // meters per second
}

// NewGridCity returns a lattice city. Typical calibration: 200 m blocks at
// 8 m/s (≈29 km/h) gives 25 s per block, similar to urban taxi speeds.
func NewGridCity(w, h int, cellMeters, speed float64) *GridCity {
	if w < 1 || h < 1 {
		panic("roadnet: GridCity dimensions must be >= 1")
	}
	if cellMeters <= 0 || speed <= 0 {
		panic("roadnet: GridCity cellMeters and speed must be positive")
	}
	return &GridCity{W: w, H: h, CellMeters: cellMeters, Speed: speed}
}

// NumNodes implements Network.
func (c *GridCity) NumNodes() int { return c.W * c.H }

// Node returns the NodeID of the intersection at column x, row y.
func (c *GridCity) Node(x, y int) geo.NodeID { return geo.NodeID(y*c.W + x) }

// XY returns the column and row of node n.
func (c *GridCity) XY(n geo.NodeID) (x, y int) { return int(n) % c.W, int(n) / c.W }

// Coord implements Network.
func (c *GridCity) Coord(n geo.NodeID) geo.Point {
	x, y := c.XY(n)
	return geo.Point{X: float64(x) * c.CellMeters, Y: float64(y) * c.CellMeters}
}

// Cost implements Network: L1 lattice distance over street speed.
func (c *GridCity) Cost(from, to geo.NodeID) float64 {
	fx, fy := c.XY(from)
	tx, ty := c.XY(to)
	blocks := math.Abs(float64(fx-tx)) + math.Abs(float64(fy-ty))
	return blocks * c.CellMeters / c.Speed
}

// MinSecondsPerMetre implements FloorNetwork: Cost is the L1 distance over
// Speed, so 1/Speed is the exact rate. Rounding stays inside the
// FloorNetwork allowance: Coord errs by at most 2^-53 of each coordinate,
// and Cost and the rate by two and one roundings, which sums to under
// 6 * 2^-53 * r * E.
func (c *GridCity) MinSecondsPerMetre() float64 { return 1 / c.Speed }

// TriangleSlack implements MetricNetwork. Block counts obey the triangle
// inequality exactly, and every Cost is the exact L1 time rounded twice
// (the product, then the quotient), so Cost(a, c) exceeds Cost(a, b) +
// Cost(b, c) by at most a factor (1+u)^2/(1-u)^2 < 1 + 5u, u = 2^-53;
// 2^-50 states that with room. Where every cost is exact (CDC's 160 m
// blocks at 8 m/s are 20 s each) the inequality holds with no slack at all.
func (c *GridCity) TriangleSlack() float64 { return 0x1p-50 }

// Bounds implements Network.
func (c *GridCity) Bounds() geo.Rect {
	return geo.Rect{
		Min: geo.Point{},
		Max: geo.Point{X: float64(c.W-1) * c.CellMeters, Y: float64(c.H-1) * c.CellMeters},
	}
}
