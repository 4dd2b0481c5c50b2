package gridindex

import (
	"math"
	"sort"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// WorkerIndex tracks workers by grid cell and answers "closest idle worker
// to node X at time T" queries with expanding ring search, the standard
// grid-accelerated dispatch lookup the paper adopts from prior studies.
// Each ring's surviving candidates are costed with one batched roadnet
// call: FillNearestWithin for the closest-worker probes (a Graph-backed
// network searches only the candidates its lower bounds cannot exclude),
// FillCostMatrix for KNearest, which ranks the whole ring. A closest-worker
// probe skips, in O(1), every cell whose earliest FreeAt is after the query
// time and, on a network with a travel-time floor, every cell too far away
// to hold a worker within the cap of that moment (DESIGN §13).
//
// The index is single-goroutine state: each simulation job owns its own,
// and its queries reuse the index's scratch.
type WorkerIndex struct {
	ix      *Index
	net     roadnet.Network
	cells   [][]*order.Worker // cell id -> workers whose Loc falls in it
	cellOf  map[int]int       // worker id -> cell id
	workers map[int]*order.Worker
	// minFree is each cell's watermark: the earliest FreeAt among the
	// workers filed there (+Inf when empty). insert and Update keep it
	// exact, so a cell whose watermark is after now holds nobody idle.
	minFree []float64
	// secPerM is the network's floor on seconds per metre of L1 distance
	// (roadnet.FloorNetwork), 0 when it states none: cellGap times it never
	// exceeds the cost of any worker filed in that cell.
	secPerM float64

	// Reusable batching scratch for the index's queries.
	sc probeScratch

	// gen counts Updates: every write to a worker's FreeAt or Loc is followed
	// by one, so while gen stands still the fleet's books do. It is a plain
	// field written only by Update; the ring search never touches it.
	gen uint64
}

// probeScratch is the buffer set of one ring search.
type probeScratch struct {
	candBuf []*order.Worker
	locBuf  []geo.NodeID
	costBuf []float64
	// target is ringCosts' one-column target list. It lives here because a
	// slice of a stack array escapes through the network's interface call:
	// one heap allocation per ring.
	target [1]geo.NodeID
}

// NewWorkerIndex indexes the given workers.
func NewWorkerIndex(ix *Index, net roadnet.Network, workers []*order.Worker) *WorkerIndex {
	wi := &WorkerIndex{
		ix:      ix,
		net:     net,
		cells:   make([][]*order.Worker, ix.NumCells()),
		cellOf:  make(map[int]int, len(workers)),
		workers: make(map[int]*order.Worker, len(workers)),
		minFree: make([]float64, ix.NumCells()),
	}
	for c := range wi.minFree {
		wi.minFree[c] = math.Inf(1)
	}
	if f, ok := net.(roadnet.FloorNetwork); ok {
		wi.secPerM = f.MinSecondsPerMetre()
	}
	for _, w := range workers {
		wi.insert(w)
	}
	return wi
}

func (wi *WorkerIndex) insert(w *order.Worker) {
	c := wi.ix.CellOf(w.Loc)
	wi.cells[c] = append(wi.cells[c], w)
	wi.cellOf[w.ID] = c
	wi.workers[w.ID] = w
	if w.FreeAt < wi.minFree[c] {
		wi.minFree[c] = w.FreeAt
	}
}

// refresh recomputes cell's watermark from its bucket.
func (wi *WorkerIndex) refresh(cell int) {
	m := math.Inf(1)
	for _, w := range wi.cells[cell] {
		if w.FreeAt < m {
			m = w.FreeAt
		}
	}
	wi.minFree[cell] = m
}

// Update must be called after a worker's state changes (e.g. after a
// dispatch books it: FreeAt moves into the future and Loc becomes the
// route's last drop-off point). It refreshes the cell watermarks the
// closest-worker probes skip cells by, so the contract is load-bearing:
// lowering a worker's FreeAt, or moving its Loc, without an Update can hide
// an idle worker from every probe. (Raising FreeAt without one only costs
// a wasted cell visit.)
func (wi *WorkerIndex) Update(w *order.Worker) {
	wi.gen++
	old, ok := wi.cellOf[w.ID]
	if !ok {
		wi.insert(w)
		return
	}
	nc := wi.ix.CellOf(w.Loc)
	if nc != old {
		bucket := wi.cells[old]
		for i, ww := range bucket {
			if ww.ID == w.ID {
				bucket[i] = bucket[len(bucket)-1]
				wi.cells[old] = bucket[:len(bucket)-1]
				break
			}
		}
		wi.cells[nc] = append(wi.cells[nc], w)
		wi.cellOf[w.ID] = nc
		wi.refresh(old)
	}
	wi.refresh(nc)
}

// Generation returns the number of Updates so far. Worker state read at one
// instant — SupplyDistribution(now), a probe's answer — is unchanged at the
// same instant while Generation is; at a later instant it is not, because a
// worker turns idle by the clock passing its FreeAt, with no Update.
func (wi *WorkerIndex) Generation() uint64 { return wi.gen }

// ringLocs loads the current ring's candidate locations into the scratch
// and sizes its cost row to match.
func ringLocs(sc *probeScratch) {
	sc.locBuf = sc.locBuf[:0]
	for _, w := range sc.candBuf {
		sc.locBuf = append(sc.locBuf, w.Loc)
	}
	if cap(sc.costBuf) < len(sc.locBuf) {
		sc.costBuf = make([]float64, len(sc.locBuf))
	}
	sc.costBuf = sc.costBuf[:len(sc.locBuf)]
}

// ringCosts prices every candidate gathered for the current ring: the exact
// travel time from each to node (KNearest ranks all of them). Disconnected
// candidates come back +Inf.
func (wi *WorkerIndex) ringCosts(sc *probeScratch, node geo.NodeID) []float64 {
	ringLocs(sc)
	sc.target[0] = node
	roadnet.FillCostMatrix(wi.net, sc.locBuf, sc.target[:], sc.costBuf)
	return sc.costBuf
}

// ringNearest prices the current ring for a closest-worker question: by
// roadnet.FillNearestWithin's argmin contract the cheapest candidate within
// maxCost (and every candidate tied with it) is exact, the others are exact
// or +Inf. A Graph network orders the ring by landmark bound and searches
// forward from each candidate under a budget that shrinks to the best cost
// found, skipping the rest once their bounds exceed it; forward because a
// single reverse sweep from node would fold float32 edge sums in the other
// order and break bit-equivalence with Cost. Closed-form networks price the
// whole ring, as ringCosts does.
func (wi *WorkerIndex) ringNearest(sc *probeScratch, node geo.NodeID, maxCost float64) []float64 {
	ringLocs(sc)
	roadnet.FillNearestWithin(wi.net, sc.locBuf, node, maxCost, sc.costBuf)
	return sc.costBuf
}

// ClosestIdleWithin returns the idle worker (FreeAt <= now) with at least
// minCapacity seats whose travel time to node is smallest and at most
// maxCost (the dispatcher passes the deadline slack the group can still
// absorb), with that travel time, or (nil, +Inf) when no worker
// qualifies. Unreachable workers (+Inf cost) are never candidates — a
// grid-near but disconnected worker must not shadow a reachable one.
func (wi *WorkerIndex) ClosestIdleWithin(node geo.NodeID, now float64, minCapacity int, maxCost float64) (*order.Worker, float64) {
	return wi.closestIdleWithin(node, now, minCapacity, maxCost, nil)
}

// closestIdleWithin is the budgeted ring search. When cands is non-nil,
// every costed in-budget candidate's worker ID is appended to it: the
// probe's dependency footprint. Booking a worker that was not recorded
// (busy, under-capacity, out-of-budget, unreachable, or left unsearched by
// ringNearest or by the cell skips below because it costs more than the cap
// of that moment) cannot change the argmin or the ring the scan stops at —
// each ring's cheapest in-budget worker is always recorded. The tests hold
// the record to the oracle's and to the cap rule below, which makes it the
// walk's effort contract; a cross-tick probe memo (DESIGN.md §13, "Not
// budget-monotone") would key on it, and would keep its per-order records
// in the pool's dense order slots rather than in a map of pointers.
//
// The walk skips what cannot answer. A cell whose watermark is after now
// holds nobody idle. A cell whose distance floor (secPerM times cellGap)
// exceeds the ring's cap — min(maxCost, best cost of the earlier rings) —
// holds only workers that cost strictly more than that cap, which are
// neither the argmin nor tied with it and could not have opened the stop
// ring either; once a whole ring lies beyond the cap (ringGap), so does
// every later one, and the walk ends. Skipped cells still count toward
// seen, and neither skip changes the answer (DESIGN.md §13).
func (wi *WorkerIndex) closestIdleWithin(node geo.NodeID, now float64, minCapacity int, maxCost float64, cands *[]int32) (*order.Worker, float64) {
	sc := &wi.sc
	p := wi.net.Coord(node)
	center := wi.ix.CellOfPoint(p)
	var best *order.Worker
	bestCost := math.Inf(1)
	maxD := wi.ix.N() // worst case scans every cell
	foundAt := -1
	seen := 0 // workers encountered (any state); == Len() means later rings are empty
	for d := 0; d <= maxD; d++ {
		// Only a cost at or below the best of the earlier rings can still
		// win (equal costs tie-break on ID), so that caps the ring.
		limit := math.Min(maxCost, bestCost)
		if wi.secPerM*wi.ix.ringGap(p, center, d) > limit {
			break // this ring and every later one lie beyond the cap
		}
		sc.candBuf = sc.candBuf[:0]
		// A non-escaping ring visitor: stack-allocated, because Ring only
		// invokes it inline.
		wi.ix.Ring(center, d, func(cell int) bool {
			bucket := wi.cells[cell]
			seen += len(bucket)
			if wi.minFree[cell] > now || wi.secPerM*wi.ix.cellGap(p, cell) > limit {
				return true // nobody idle, or nobody within the cap
			}
			for _, w := range bucket {
				if !w.IdleAt(now) || w.Capacity < minCapacity {
					continue
				}
				sc.candBuf = append(sc.candBuf, w)
			}
			return true
		})
		if len(sc.candBuf) > 0 {
			costs := wi.ringNearest(sc, node, limit)
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

// KNearest returns up to k workers passing pred, ordered by increasing
// travel time from their location to node. The ring search scans outward
// and stops once it has k hits and one extra ring (grid distance only
// approximates travel time). Workers that cannot reach node at all are
// excluded.
func (wi *WorkerIndex) KNearest(node geo.NodeID, k int, pred func(*order.Worker) bool) []*order.Worker {
	if k <= 0 {
		return nil
	}
	center := wi.ix.CellOf(node)
	type cand struct {
		w    *order.Worker
		cost float64
	}
	var cands []cand
	foundAt := -1
	seen := 0
	sc := &wi.sc
	for d := 0; d <= wi.ix.N(); d++ {
		sc.candBuf = sc.candBuf[:0]
		wi.ix.Ring(center, d, func(cell int) bool {
			seen += len(wi.cells[cell])
			for _, w := range wi.cells[cell] {
				if pred != nil && !pred(w) {
					continue
				}
				sc.candBuf = append(sc.candBuf, w)
			}
			return true
		})
		if len(sc.candBuf) > 0 {
			costs := wi.ringCosts(sc, node)
			for i, w := range sc.candBuf {
				if math.IsInf(costs[i], 1) {
					continue // disconnected: not a usable candidate
				}
				cands = append(cands, cand{w, costs[i]})
			}
		}
		if len(cands) >= k && foundAt < 0 {
			foundAt = d
		}
		if foundAt >= 0 && d >= foundAt+1 {
			break
		}
		if seen >= len(wi.workers) {
			break // all workers encountered; further rings are empty
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].cost != cands[j].cost {
			return cands[i].cost < cands[j].cost
		}
		return cands[i].w.ID < cands[j].w.ID
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]*order.Worker, len(cands))
	for i, c := range cands {
		out[i] = c.w
	}
	return out
}

// SupplyDistribution returns the normalized spatial distribution of idle
// workers at time now (the MDP state's sW vector).
func (wi *WorkerIndex) SupplyDistribution(now float64) Distribution {
	d := wi.ix.NewDistribution()
	wi.FillSupply(d, now)
	return d
}

// FillSupply is SupplyDistribution into the caller's histogram, one entry
// per cell of the index.
func (wi *WorkerIndex) FillSupply(d Distribution, now float64) {
	clear(d)
	for cell, ws := range wi.cells {
		for _, w := range ws {
			if w.IdleAt(now) {
				d[cell]++
			}
		}
	}
	d.Normalize()
}
