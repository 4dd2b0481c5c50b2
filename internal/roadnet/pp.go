package roadnet

import (
	"math"
	"slices"

	"watter/internal/geo"
)

// The query side of Graph: the pooled scratch and the three query shapes
// (single pair, many-to-many matrix, nearest-of-many) both engines share,
// and the ALT engine's search body — goal-directed A* over the CSR graph
// using the lower bounds from alt.go, generalized to one-source/many-targets
// so a route planner leg matrix or a ring of dispatch candidates is filled
// by one pruned search per source instead of a full city Dijkstra each.
// The hierarchy's search body is chquery.go; search picks between them.
//
// Exactness: relaxations accumulate in float32 exactly like the reference
// Dijkstra (nd = dist[u] + w), the search keeps no closed list (worse
// entries are skipped as stale, improved nodes re-enter the queue), and a
// target's distance is only finalized once the minimum queue key — a lower
// bound on every remaining path's float32 fold, because the heuristic is
// admissible for the float32 metric — reaches it. The result is therefore
// the same min-over-paths float32 left-fold the full Dijkstra computes,
// bit for bit; the property tests enforce this on random jittered cities.
//
// Concurrency: the graph and landmark arrays are immutable after Build;
// all mutable search state lives in a pooled scratch, so any number of
// goroutines may query concurrently (the sweep engine shares one Graph
// across replicate runs).

// scratch is the reusable per-query state of either engine: generation-
// stamped distance and heuristic arrays (O(1) reset), the frontier heap,
// small target bookkeeping slices and, once a hierarchy exists, the two-phase
// labels and target descent cone of chquery.go.
//
//det:scratch pooled per-query search state; arrays are generation-stamped and reused across queries
type scratch struct {
	// dist/gen hold one tentative float32 fold per search state: the n nodes
	// for ALT; 2n for the hierarchy (node = climbing, node+n = descending).
	dist []float32
	gen  []uint32
	// hval/hgen cache the per-node heuristic under the target-set epoch
	// hcur, which only advances when sc.uniq changes — so a matrix's
	// sources share one heuristic evaluation per node.
	hval []float64
	hgen []uint32
	cur  uint32
	hcur uint32
	heap minHeap[float64]

	// Target descent cone (hierarchy only, nil otherwise): the set of nodes
	// from which some target is reachable by downward edges alone, marked by
	// walking the reverse-down CSR from each target. Restricting the descend
	// phase to the cone is lossless (every down-path to a target stays inside
	// it by definition) and is what keeps the search on climb-cone x
	// target-cone instead of reflooding the city. The cone's incoming down
	// edges are also bucketed by tail node (tFirst and coneEdge.next form
	// per-node linked lists), so the search relaxes exactly the useful down
	// edges instead of scanning a high-rank node's entire down list against
	// the marks. Computed once per target-set epoch, so a matrix's sources
	// share one marking pass.
	coneMark []uint32
	coneQ    []int32
	coneEp   uint32
	tStamp   []uint32
	tFirst   []int32
	// Packed relax inputs per bucketed edge, copied out of the arena once
	// per target epoch so the search never touches the arena for a
	// transition/descend relaxation that fails the prefilter.
	tPack []coneEdge

	uniq    []geo.NodeID // deduplicated targets
	res     []float64    // result per uniq target
	pending []int        // uniq indices not yet finalized
	colIdx  []int        // output column -> uniq index
	ord     []int32      // nearestInto: source indices by ascending bound
}

// getScratch hands out a scratch sized for the engine answering now. A
// scratch pooled while the graph was on ALT is too small for the hierarchy's
// 2n states and has no cone arrays; it is rebuilt rather than reused short.
//
//det:hotalloc pool miss or first query after EnableHierarchy; steady state reuses pooled arrays
func (g *Graph) getScratch() *scratch {
	sc, _ := g.pool.Get().(*scratch)
	if sc == nil {
		sc = &scratch{}
	}
	n := len(g.coords)
	states := n
	if g.ch != nil {
		states = 2 * n
	}
	if len(sc.dist) < states {
		*sc = scratch{
			dist: make([]float32, states),
			gen:  make([]uint32, states),
			hval: make([]float64, n),
			hgen: make([]uint32, n),
		}
		if g.ch != nil {
			sc.coneMark = make([]uint32, n)
			sc.tStamp = make([]uint32, n)
			sc.tFirst = make([]int32, n)
		}
	}
	return sc
}

// nextGen starts a fresh search epoch; on uint32 wraparound the stamp
// array is zeroed so stale stamps can never collide.
func (sc *scratch) nextGen() {
	sc.cur++
	if sc.cur == 0 {
		clear(sc.gen)
		sc.cur = 1
	}
	sc.heap = sc.heap[:0]
}

// setTargets installs a new target set: deduplicated into sc.uniq with each
// output column's slot in sc.colIdx, sc.res sized to match, and the cached
// heuristic values and cone invalidated. Callers invoke it once per distinct
// target set, not once per source.
func (sc *scratch) setTargets(targets ...geo.NodeID) {
	sc.uniq = sc.uniq[:0]
	sc.colIdx = sc.colIdx[:0]
	for _, t := range targets {
		slot := slices.Index(sc.uniq, t)
		if slot < 0 {
			slot = len(sc.uniq)
			//det:hotalloc pooled scratch retains capacity across queries; grows only on first use
			sc.uniq = append(sc.uniq, t)
		}
		//det:hotalloc pooled scratch retains capacity across queries; grows only on first use
		sc.colIdx = append(sc.colIdx, slot)
	}
	if cap(sc.res) < len(sc.uniq) {
		//det:hotalloc grows the pooled result row once per high-water target count
		sc.res = make([]float64, len(sc.uniq))
	}
	sc.res = sc.res[:len(sc.uniq)]
	sc.hcur++
	if sc.hcur == 0 {
		clear(sc.hgen)
		clear(sc.coneMark)
		clear(sc.tStamp)
		sc.coneEp = 0
		sc.hcur = 1
	}
}

// maxHeuristicWork bounds targets x landmarks per heuristic evaluation;
// beyond it the search falls back to h = 0 (goal-stopped Dijkstra), which
// is still exact — the heuristic only prunes.
const maxHeuristicWork = 128

// search is the ladder: one exact multi-target search from src over
// sc.uniq into sc.res, on the hierarchy when the graph has one and on ALT
// otherwise. A further engine is one more search body and one more line
// here. ubHint is the hierarchy's single-pair trip bound (0 or +Inf = none).
func (g *Graph) search(sc *scratch, src geo.NodeID, budget, ubHint float64) {
	if g.ch != nil {
		g.chSearchFrom(sc, src, budget, ubHint)
		return
	}
	g.searchFrom(sc, src, budget)
}

// Cost implements Network: the shortest travel time from one node to
// another (+Inf when unreachable), bit-identical to Reference(g).Cost.
func (g *Graph) Cost(from, to geo.NodeID) float64 {
	if from == to {
		return 0
	}
	// Landmark upper bound on the trip (src -> L -> to): lets the hierarchy
	// scale its fold-error deflation to the trip instead of the diameter.
	ubHint := math.Inf(1)
	if g.ch != nil {
		for i := range g.landmarks {
			if ub := g.landTo[i][from] + g.landFrom[i][to]; ub < ubHint {
				ubHint = ub
			}
		}
	}
	sc := g.getScratch()
	sc.setTargets(to)
	g.search(sc, from, math.Inf(1), ubHint)
	d := sc.res[0]
	g.pool.Put(sc)
	return d
}

// CostALT answers a point-to-point query via the ALT engine whether or not
// a contraction hierarchy is built: the lockstep arm the hierarchy is
// property-tested and benchmarked against.
func (g *Graph) CostALT(from, to geo.NodeID) float64 {
	if from == to {
		return 0
	}
	sc := g.getScratch()
	sc.setTargets(to)
	g.searchFrom(sc, from, math.Inf(1))
	d := sc.res[0]
	g.pool.Put(sc)
	return d
}

// costMatrixInto implements FillCostMatrixWithin with one pruned
// multi-target search per distinct source: out is row-major with
// len >= len(sources)*len(targets). Entries whose cost exceeds maxCost may
// be reported as +Inf (every entry <= maxCost is exact); pass +Inf for the
// full matrix. Matrix searches pass no ubHint: a per-source hint would
// poison the heuristic cache the sources share.
func (g *Graph) costMatrixInto(sources, targets []geo.NodeID, maxCost float64, out []float64) {
	nt := len(targets)
	if nt == 0 || len(sources) == 0 {
		return
	}
	sc := g.getScratch()
	sc.setTargets(targets...)
	for i, s := range sources {
		row := out[i*nt : (i+1)*nt]
		// Duplicate sources reuse the already-computed row.
		if dup := slices.Index(sources[:i], s); dup >= 0 {
			copy(row, out[dup*nt:(dup+1)*nt])
			continue
		}
		g.search(sc, s, maxCost, 0)
		for j := 0; j < nt; j++ {
			row[j] = sc.res[sc.colIdx[j]]
		}
	}
	g.pool.Put(sc)
}

// nearestInto implements FillNearestWithin. Sources are searched in
// ascending order of their landmark bound, each under a budget that is
// maxCost until some search lands at or below it and the best exact cost
// found so far from then on; the scan stops at the first source whose bound
// exceeds the budget. Exactness: a search under budget B reports every cost
// <= B exactly, and B never drops below the true minimum m over sources
// (it only ever takes exact costs of sources, all >= m), so every source
// attaining m <= maxCost is searched — its bound is <= m <= B — and reported
// as m; ties included, since B = m still admits cost m. A source left
// unsearched has bound > B >= m, so it is neither the argmin nor tied with
// it, and +Inf is a legal report. All searches share one target epoch: one
// heuristic cache and, on the hierarchy, one buildCone — so, as in a matrix,
// they pass no ubHint.
func (g *Graph) nearestInto(sources []geo.NodeID, target geo.NodeID, maxCost float64, out []float64) {
	if len(sources) == 0 {
		return
	}
	sc := g.getScratch()
	sc.setTargets(target)
	// Bounds go into out, then an insertion sort of the indices (rings hold
	// a handful of workers; stable, so equal bounds keep source order).
	ord := sc.ord[:0]
	for i, s := range sources {
		out[i] = g.CostLowerBound(s, target)
		//det:hotalloc pooled scratch retains capacity across queries; grows only on first use
		ord = append(ord, int32(i))
		for j := i; j > 0 && out[ord[j]] < out[ord[j-1]]; j-- {
			ord[j], ord[j-1] = ord[j-1], ord[j]
		}
	}
	budget := maxCost
	inf := math.Inf(1)
	for k, i := range ord {
		if out[i] > budget {
			for _, rest := range ord[k:] {
				out[rest] = inf
			}
			break
		}
		if k > 0 && sources[i] == sources[ord[k-1]] {
			out[i] = out[ord[k-1]] // co-located workers sort adjacently
			continue
		}
		g.search(sc, sources[i], budget, 0)
		out[i] = sc.res[0]
		if out[i] < budget {
			budget = out[i]
		}
	}
	sc.ord = ord
	g.pool.Put(sc)
}

// searchFrom runs one exact multi-target A* from src over sc.uniq, filling
// sc.res (aligned with sc.uniq; +Inf for unreachable targets). Targets
// farther than budget may be left at +Inf: once the minimum queue key —
// an admissible lower bound on reaching any remaining target — exceeds
// budget, no pending target can cost <= budget and the search stops.
func (g *Graph) searchFrom(sc *scratch, src geo.NodeID, budget float64) {
	sc.nextGen()
	cur := sc.cur
	inf := math.Inf(1)

	useALT := len(g.landmarks) > 0 && len(sc.uniq)*len(g.landmarks) <= maxHeuristicWork
	hcur := sc.hcur
	//det:hotalloc non-escaping closure, stack-allocated because h never leaves searchFrom
	h := func(v geo.NodeID) float64 {
		if !useALT {
			return 0
		}
		if sc.hgen[v] == hcur {
			return sc.hval[v]
		}
		b := inf
		for _, t := range sc.uniq {
			if bt := g.altBound(v, t); bt < b {
				b = bt
			}
		}
		sc.hval[v] = b
		sc.hgen[v] = hcur
		return b
	}

	sc.pending = sc.pending[:0]
	for k := range sc.uniq {
		sc.res[k] = inf
		sc.pending = append(sc.pending, k)
	}
	// A +Inf landmark bound from src is an exact unreachability proof
	// (see altBound); pre-finalizing such targets keeps one stranded node
	// in a matrix from forcing a full-component search per source.
	if len(g.landmarks) > 0 {
		for k := len(sc.pending) - 1; k >= 0; k-- {
			if math.IsInf(g.altBound(src, sc.uniq[sc.pending[k]]), 1) {
				sc.pending[k] = sc.pending[len(sc.pending)-1]
				sc.pending = sc.pending[:len(sc.pending)-1]
			}
		}
		if len(sc.pending) == 0 {
			return
		}
	}

	sc.dist[src] = 0
	sc.gen[src] = cur
	sc.heap.push(heapItem[float64]{key: h(src), dist: 0, node: src})

	for len(sc.heap) > 0 {
		it := sc.heap.pop()
		// it.key is the minimum over all remaining frontier entries, and
		// every improving path to a target must pass through an entry whose
		// key lower-bounds the path's float32 fold (admissible heuristic).
		// A target whose tentative distance is <= it.key is final.
		for k := len(sc.pending) - 1; k >= 0; k-- {
			ti := sc.pending[k]
			t := sc.uniq[ti]
			if sc.gen[t] == cur && float64(sc.dist[t]) <= it.key {
				sc.res[ti] = float64(sc.dist[t])
				sc.pending[k] = sc.pending[len(sc.pending)-1]
				sc.pending = sc.pending[:len(sc.pending)-1]
			}
		}
		if len(sc.pending) == 0 {
			sc.heap = sc.heap[:0]
			return
		}
		if it.key > budget {
			// Every pending target costs at least it.key > budget; the
			// caller treats beyond-budget entries as unreachable.
			sc.heap = sc.heap[:0]
			return
		}
		if it.dist > sc.dist[it.node] {
			continue // stale: a better entry for this node was processed
		}
		for i := g.headIdx[it.node]; i < g.headIdx[it.node+1]; i++ {
			v := g.adjNode[i]
			nd := it.dist + g.adjCost[i] // float32 fold, same as dijkstra()
			if sc.gen[v] == cur && nd >= sc.dist[v] {
				continue
			}
			sc.dist[v] = nd
			sc.gen[v] = cur
			sc.heap.push(heapItem[float64]{key: float64(nd) + h(v), dist: nd, node: v})
		}
	}
	// Queue exhausted: every reachable node's distance is final; targets
	// never reached stay +Inf.
	for _, ti := range sc.pending {
		t := sc.uniq[ti]
		if sc.gen[t] == cur {
			sc.res[ti] = float64(sc.dist[t])
		}
	}
}
