// Package gridindex implements the n-by-n spatial grid the paper uses both
// as a search accelerator ("grid index to speed up workers and riders
// search", Section VII-A) and as the quantization behind the MDP state's
// location features (Section VI-A).
package gridindex

import (
	"math"

	"watter/internal/geo"
	"watter/internal/roadnet"
)

// Index partitions the network's bounding box into N x N uniform cells.
type Index struct {
	net    roadnet.Network
	n      int
	bounds geo.Rect
	cellW  float64
	cellH  float64
	// margin widens every cell by this many metres on each side when
	// cellGap bounds the distance to it. It absorbs every float64 rounding
	// between a node's coordinate, the cell CellOfPoint files it under, the
	// gap arithmetic and the network's own Cost: each of those errs by at
	// most a few units of 2^-53 of the extent, and the margin is 2^-32 of it
	// (DESIGN §13).
	margin float64
}

// New builds an index with n cells per side over the network's bounds.
func New(net roadnet.Network, n int) *Index {
	if n < 1 {
		panic("gridindex: n must be >= 1")
	}
	b := net.Bounds()
	w := b.Width()
	h := b.Height()
	if w <= 0 {
		w = 1
	}
	if h <= 0 {
		h = 1
	}
	extent := math.Abs(b.Min.X) + math.Abs(b.Min.Y) + w + h
	return &Index{net: net, n: n, bounds: b, cellW: w / float64(n), cellH: h / float64(n), margin: extent * 0x1p-32}
}

// N returns the per-side cell count.
func (ix *Index) N() int { return ix.n }

// NumCells returns N*N.
func (ix *Index) NumCells() int { return ix.n * ix.n }

// CellOfPoint returns the cell id of a planar point (clamped to bounds).
func (ix *Index) CellOfPoint(p geo.Point) int {
	p = ix.bounds.Clamp(p)
	cx := int((p.X - ix.bounds.Min.X) / ix.cellW)
	cy := int((p.Y - ix.bounds.Min.Y) / ix.cellH)
	if cx >= ix.n {
		cx = ix.n - 1
	}
	if cy >= ix.n {
		cy = ix.n - 1
	}
	return cy*ix.n + cx
}

// CellOf returns the cell id of a road-network node.
func (ix *Index) CellOf(node geo.NodeID) int {
	return ix.CellOfPoint(ix.net.Coord(node))
}

// CellXY splits a cell id into column and row.
func (ix *Index) CellXY(cell int) (x, y int) { return cell % ix.n, cell / ix.n }

// Ring calls fn for every cell at exactly Chebyshev distance d from the
// center cell, skipping out-of-range cells, column by column (x ascending,
// y ascending within a column). It walks the ring's perimeter only: the
// left column, the top and bottom cell of each interior column, the right
// column. fn returning false stops the walk early; Ring reports whether the
// walk ran to completion.
func (ix *Index) Ring(center, d int, fn func(cell int) bool) bool {
	cx, cy := ix.CellXY(center)
	if d == 0 {
		return fn(center)
	}
	n := ix.n
	ylo, yhi := max(cy-d, 0), min(cy+d, n-1)
	if x := cx - d; x >= 0 {
		for y := ylo; y <= yhi; y++ {
			if !fn(y*n + x) {
				return false
			}
		}
	}
	for x := max(cx-d+1, 0); x <= min(cx+d-1, n-1); x++ {
		if y := cy - d; y >= 0 && !fn(y*n+x) {
			return false
		}
		if y := cy + d; y < n && !fn(y*n+x) {
			return false
		}
	}
	if x := cx + d; x < n {
		for y := ylo; y <= yhi; y++ {
			if !fn(y*n + x) {
				return false
			}
		}
	}
	return true
}

// axisGap returns the distance along one axis from coordinate p to the
// extent of the i-th cell strip starting at lo with width w, the strip
// widened by margin on both sides; 0 when p lies within it.
func axisGap(p, lo, w float64, i int, margin float64) float64 {
	if a := lo + float64(float64(i)*w) - margin; p < a {
		return a - p
	}
	if b := lo + float64(float64(i+1)*w) + margin; p > b {
		return p - b
	}
	return 0
}

// cellGap returns a lower bound, in metres, on the L1 distance from p to
// the coordinate of any node CellOf files under cell.
func (ix *Index) cellGap(p geo.Point, cell int) float64 {
	x, y := ix.CellXY(cell)
	return axisGap(p.X, ix.bounds.Min.X, ix.cellW, x, ix.margin) +
		axisGap(p.Y, ix.bounds.Min.Y, ix.cellH, y, ix.margin)
}

// ringGap returns a lower bound, in metres, on cellGap(p, c) for every cell
// c of ring d around center — each such cell lies in column cx±d or row
// cy±d — and +Inf when the ring has no cell inside the grid. It never
// decreases as d grows, so once it prices a ring out, every later ring is
// priced out too.
func (ix *Index) ringGap(p geo.Point, center, d int) float64 {
	if d == 0 {
		return 0
	}
	cx, cy := ix.CellXY(center)
	g := math.Inf(1)
	if x := cx - d; x >= 0 {
		g = min(g, axisGap(p.X, ix.bounds.Min.X, ix.cellW, x, ix.margin))
	}
	if x := cx + d; x < ix.n {
		g = min(g, axisGap(p.X, ix.bounds.Min.X, ix.cellW, x, ix.margin))
	}
	if y := cy - d; y >= 0 {
		g = min(g, axisGap(p.Y, ix.bounds.Min.Y, ix.cellH, y, ix.margin))
	}
	if y := cy + d; y < ix.n {
		g = min(g, axisGap(p.Y, ix.bounds.Min.Y, ix.cellH, y, ix.margin))
	}
	return g
}

// Distribution is a normalized histogram over cells; the MDP state's demand
// (sO) and supply (sW) vectors are Distributions.
type Distribution []float64

// NewDistribution allocates a zero histogram for the index.
func (ix *Index) NewDistribution() Distribution {
	return make(Distribution, ix.NumCells())
}

// Normalize scales the histogram to sum to 1 (no-op for an all-zero vector).
func (d Distribution) Normalize() {
	var sum float64
	for _, v := range d {
		sum += v
	}
	if sum == 0 {
		return
	}
	for i := range d {
		d[i] /= sum
	}
}
