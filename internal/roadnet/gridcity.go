package roadnet

import (
	"math"
	"math/bits"

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
	// Written so NaN fails too: a NaN or infinite scale makes Cost NaN, and
	// an infinite speed makes MinSecondsPerMetre 0.
	if !(cellMeters > 0 && speed > 0) || math.IsInf(cellMeters, 1) || math.IsInf(speed, 1) {
		panic("roadnet: GridCity cellMeters and speed must be positive and finite")
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
	return c.blocksCost(math.Abs(float64(fx-tx)) + math.Abs(float64(fy-ty)))
}

// blocksCost is the travel time of a whole number of blocks.
func (c *GridCity) blocksCost(blocks float64) float64 {
	return blocks * c.CellMeters / c.Speed
}

// CostQuantum implements ExactNetwork. Every Cost is blocksCost(b) for a
// block count b up to (W-1) + (H-1), and block counts obey the triangle
// inequality exactly, so the lattice is exact when each blocksCost(b) is b
// whole steps of the one-block time, with that time m * q for an odd m and
// a power of two q, and b * m stays below 2^47. CDC's 160 m blocks at 8
// m/s (20 s = 5 * 4) and XIA's 170 m at 8 m/s (85/4 s) are; NYC's 150 m at
// 7 m/s (150/7 s, a rounded quotient) is not.
func (c *GridCity) CostQuantum() float64 {
	step := c.blocksCost(1)
	if math.IsInf(step, 0) {
		return 0
	}
	frac, exp := math.Frexp(step)
	mant := uint64(math.Ldexp(frac, 53))
	tz := bits.TrailingZeros64(mant)
	m, q := mant>>tz, math.Ldexp(1, exp-53+tz)
	maxBlocks := uint64(c.W-1) + uint64(c.H-1)
	if q == 0 || maxBlocks > (1<<47-1)/m {
		return 0
	}
	for b := uint64(2); b <= maxBlocks; b++ {
		if c.blocksCost(float64(b)) != float64(b*m)*q {
			return 0
		}
	}
	return q
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
