package gridindex

import (
	"fmt"
	"math"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
)

// The oracle: the ring walk and the budgeted ring search as they stood
// before the perimeter walk, the cell watermarks and the distance floor —
// a scan of the whole (2d+1)² square per ring, and a search that visits
// every cell of every ring it reaches — kept verbatim except that the walk
// is a function instead of a method and the search calls it. This file is
// the only place the old square scan and the old search live.

func oracleRing(ix *Index, center, d int, fn func(cell int) bool) bool {
	cx, cy := ix.CellXY(center)
	if d == 0 {
		return fn(center)
	}
	for x := cx - d; x <= cx+d; x++ {
		for y := cy - d; y <= cy+d; y++ {
			if x < 0 || y < 0 || x >= ix.n || y >= ix.n {
				continue
			}
			if x != cx-d && x != cx+d && y != cy-d && y != cy+d {
				continue // interior of the ring
			}
			if !fn(y*ix.n + x) {
				return false
			}
		}
	}
	return true
}

func (wi *WorkerIndex) oracleClosestIdleWithin(node geo.NodeID, now float64, minCapacity int, maxCost float64, sc *probeScratch, cands *[]int32) (*order.Worker, float64) {
	center := wi.ix.CellOf(node)
	var best *order.Worker
	bestCost := math.Inf(1)
	maxD := wi.ix.N() // worst case scans every cell
	foundAt := -1
	seen := 0 // workers encountered (any state); == Len() means later rings are empty
	for d := 0; d <= maxD; d++ {
		sc.candBuf = sc.candBuf[:0]
		oracleRing(wi.ix, center, d, func(cell int) bool {
			seen += len(wi.cells[cell])
			for _, w := range wi.cells[cell] {
				if !w.IdleAt(now) || w.Capacity < minCapacity {
					continue
				}
				sc.candBuf = append(sc.candBuf, w)
			}
			return true
		})
		if len(sc.candBuf) > 0 {
			// Only a cost at or below the best of the earlier rings can
			// still win (equal costs tie-break on ID), so that caps the ring.
			costs := wi.ringNearest(sc, node, math.Min(maxCost, bestCost))
			for i, w := range sc.candBuf {
				c := costs[i]
				if math.IsInf(c, 1) || c > maxCost {
					continue // unreachable, beyond the deadline budget, or not searched
				}
				if cands != nil {
					*cands = append(*cands, int32(w.ID))
				}
				if best == nil || c < bestCost || (c == bestCost && w.ID < best.ID) {
					best = w
					bestCost = c
				}
			}
		}
		if best != nil && foundAt < 0 {
			foundAt = d
		}
		if foundAt >= 0 && d >= foundAt+1 {
			break
		}
		if seen >= len(wi.workers) {
			break // every worker lives in a scanned cell; the rest is empty
		}
	}
	if best == nil {
		return nil, math.Inf(1)
	}
	return best, bestCost
}

// TestRingMatchesSquareScan: the perimeter walk yields exactly the cells of
// the square scan, in the same order, for every center of grids of 1, 2, 7
// and 10 cells a side and every ring out to one past the grid — and stops
// where the scan stops when fn refuses the k-th cell, reporting the same.
func TestRingMatchesSquareScan(t *testing.T) {
	walk := func(ring func(int, int, func(int) bool) bool, center, d, stopAt int) ([]int, bool) {
		var got []int
		done := ring(center, d, func(cell int) bool {
			got = append(got, cell)
			return len(got) != stopAt
		})
		return got, done
	}
	for _, n := range []int{1, 2, 7, 10} {
		ix := New(testNet(), n)
		square := func(center, d int, fn func(int) bool) bool { return oracleRing(ix, center, d, fn) }
		for center := 0; center < ix.NumCells(); center++ {
			for d := 0; d <= n+1; d++ {
				want, _ := walk(square, center, d, 0) // 0: never stop
				for stopAt := 0; stopAt <= len(want); stopAt++ {
					w, wdone := walk(square, center, d, stopAt)
					g, gdone := walk(ix.Ring, center, d, stopAt)
					if fmt.Sprint(g) != fmt.Sprint(w) || gdone != wdone {
						t.Fatalf("n=%d center=%d d=%d stop at %d: walk %v (done %v), square scan %v (done %v)",
							n, center, d, stopAt, g, gdone, w, wdone)
					}
				}
			}
		}
	}
}
