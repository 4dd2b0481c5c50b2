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
// bit for bit, whatever order the queue pops in; the property tests enforce
// this on random jittered cities.
//
// The heuristic ranges over the *pending* targets only: h(v) is the smallest
// landmark bound from v to a target not yet finalized (heuristic). A target
// that is the source itself, or already final, would pin h near 0 around it
// and flood the search; it is never asked about again, so it has no say in
// where the search goes. When a pop finalizes a target and others remain,
// the frontier is re-keyed for the smaller set (settle, rekey). Why keys of
// different vintages may share one queue: a bound minimized over a superset
// of the pending targets is <= the bound minimized over the pending ones, so
// an entry keyed before a target left — or a popped key read after — still
// lower-bounds every improving path through it to every target that is
// *still* pending. That is all the three consumers of a key ever use: the
// finalization rule (dist[t] <= min key, for pending t), the budget stop
// (min key > budget means no pending target is within budget) and the
// hierarchy's maxUB/maxUBh prunes (maxima over pending tentative folds).
// Re-keying never makes an answer right; it only stops the search paying
// for targets it has already answered.
//
// Concurrency: the graph and landmark table are immutable after Build;
// all mutable search state lives in a pooled scratch, so any number of
// goroutines may query concurrently (the sweep engine shares one Graph
// across replicate runs).

// scratch is the reusable per-query state of either engine: generation-
// stamped distance and heuristic arrays (O(1) reset), the frontier heap,
// small target bookkeeping slices and, once a hierarchy exists, the two-phase
// labels and target descent cone of chquery.go.
type scratch struct {
	// dist/gen hold one tentative float32 fold per search state: the n nodes
	// for ALT; 2n for the hierarchy (node = climbing, node+n = descending).
	dist []float32
	gen  []uint32
	cur  uint32
	// hval/hgen cache the heuristic per node under the epoch hcur. An epoch
	// stands for one (target set, pending subset, deflation) and is never
	// reused for another: hseq hands them out, and a search draws a fresh one
	// whenever its pending set changes. The one epoch that outlives a search
	// is hall, "every target of the current set pending": searches that start
	// there — each source of a single-target ring, the sources of a matrix
	// disjoint from its targets — return to it, so they share one heuristic
	// evaluation per node until their first target is finalized.
	hval       []float64
	hgen       []uint32
	hcur       uint32
	hall       uint32
	hseq       uint32
	hon        bool    // false: h = 0 (no landmarks, or too many pending targets)
	hmul, habs float64 // this search's deflation of the landmark gap
	heap       minHeap[float64]
	pops       uint64 // heap pops since the scratch was made: the effort tests' counter
	coneEdges  uint64 // cone edges bucketed since the scratch was made: the same, for buildCone

	// Target descent cone (hierarchy only, nil otherwise): the set of nodes
	// from which some target is reachable by downward edges alone, marked by
	// walking the reverse-down CSR from each target and pruned where no
	// target is within the search budget (buildCone). Restricting the descend
	// phase to the cone is lossless for every target within budget and is
	// what keeps the search on climb-cone x target-cone instead of reflooding
	// the city. The cone's incoming down edges are also bucketed by tail node
	// (tFirst and coneEdge.next form per-node linked lists), so the search
	// relaxes exactly the useful down edges instead of scanning a high-rank
	// node's entire down list against the marks. Computed once per target
	// set over all of its targets, so a matrix's sources share one marking
	// pass — the cone of a superset of the pending targets is still lossless
	// — and rebuilt only for a search whose budget exceeds coneBudget, the
	// one it was pruned for. Marks and buckets carry the stamp tcur, which
	// setTargets and every rebuild renew (nextCone); coneEp is the stamp the
	// current cone was built under.
	coneMark   []uint32
	coneQ      []int32
	coneEp     uint32
	coneBudget float64
	tcur       uint32
	tStamp     []uint32
	tFirst     []int32
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

// newEpoch hands out a heuristic epoch no cached value carries. On uint32
// wraparound the stamps are zeroed; hall keeps its (now unstamped) number,
// which the counter cannot reach again within one target set.
func (sc *scratch) newEpoch() uint32 {
	sc.hseq++
	if sc.hseq == 0 {
		clear(sc.hgen)
		sc.hseq = 1
	}
	return sc.hseq
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
			sc.uniq = append(sc.uniq, t)
		}
		sc.colIdx = append(sc.colIdx, slot)
	}
	if cap(sc.res) < len(sc.uniq) {
		sc.res = make([]float64, len(sc.uniq))
	}
	sc.res = sc.res[:len(sc.uniq)]
	sc.hall = sc.newEpoch()
	sc.nextCone()
}

// nextCone hands out a fresh cone stamp: every mark and bucket of earlier
// cones reads as stale. On uint32 wraparound the stamp arrays are zeroed.
func (sc *scratch) nextCone() {
	sc.tcur++
	if sc.tcur == 0 {
		clear(sc.coneMark)
		clear(sc.tStamp)
		sc.coneEp = 0
		sc.tcur = 1
	}
}

// maxHeuristicWork bounds pending targets x landmarks per heuristic
// evaluation; beyond it the search runs on h = 0 (goal-stopped Dijkstra),
// which is still exact — the heuristic only prunes — until enough targets
// are finalized to bring it back under.
const maxHeuristicWork = 128

// begin starts a search from src over sc.uniq under the given deflation:
// results reset, and the pending set reduced to the targets a search is
// actually needed for — a target equal to src is final at 0 before the first
// push, and a +Inf landmark gap from src is an exact unreachability proof
// (landGap), which keeps one stranded node in a matrix from forcing a
// full-component search per source. It reports whether anything is pending.
func (g *Graph) begin(sc *scratch, src geo.NodeID, mul, abs float64) bool {
	sc.nextGen()
	inf := math.Inf(1)
	sp := g.landRow(src)
	sc.pending = sc.pending[:0]
	for k, t := range sc.uniq {
		sc.res[k] = inf
		switch {
		case t == src:
			sc.res[k] = 0
		case math.IsInf(landGap(sp, g.landRow(t)), 1):
			// Proven unreachable: stays +Inf, no search needed.
		default:
			sc.pending = append(sc.pending, k)
		}
	}
	sc.hmul, sc.habs = mul, abs
	sc.hcur = sc.hall
	if len(sc.pending) < len(sc.uniq) {
		sc.hcur = sc.newEpoch()
	}
	sc.hon = g.heuristicPays(sc)
	return len(sc.pending) > 0
}

// heuristicPays reports whether the pending set is small enough for the
// landmark heuristic to be evaluated (maxHeuristicWork).
func (g *Graph) heuristicPays(sc *scratch) bool {
	return len(g.landmarks) > 0 && len(sc.pending)*len(g.landmarks) <= maxHeuristicWork
}

// heuristic is h(v) for the search in progress: the smallest deflated
// landmark bound from v to any pending target, cached under the epoch of
// that pending set.
func (g *Graph) heuristic(sc *scratch, v geo.NodeID) float64 {
	if !sc.hon {
		return 0
	}
	if sc.hgen[v] == sc.hcur {
		return sc.hval[v]
	}
	b := math.Inf(1)
	vp := g.landRow(v)
	for _, ti := range sc.pending {
		if bt := deflate(landGap(vp, g.landRow(sc.uniq[ti])), sc.hmul, sc.habs); bt < b {
			b = bt
		}
	}
	sc.hval[v] = b
	sc.hgen[v] = sc.hcur
	return b
}

// tentative reads a target's best tentative fold in the search in progress:
// its one label on ALT (off = 0), the better of its climbing and descending
// labels on the hierarchy (off = n).
func (sc *scratch) tentative(t, off geo.NodeID) (float32, bool) {
	d, ok := float32(0), false
	if sc.gen[t] == sc.cur {
		d, ok = sc.dist[t], true
	}
	if sc.gen[t+off] == sc.cur && (!ok || sc.dist[t+off] < d) {
		d, ok = sc.dist[t+off], true
	}
	return d, ok
}

// settle is the finalization rule, shared by both search bodies. key is the
// minimum over the frontier, and every improving path to a pending target
// passes through an entry whose key lower-bounds the path's float32 fold, so
// a pending target whose tentative fold is <= key is final. If that shrinks
// the pending set without emptying it, the frontier is re-keyed for the
// targets that remain. For the hierarchy's prunes it also reports the worst
// tentative fold among the targets still pending, and whether all have one.
func (g *Graph) settle(sc *scratch, key float64, off geo.NodeID) (ub float64, allReached bool) {
	allReached = true
	before := len(sc.pending)
	for k := before - 1; k >= 0; k-- {
		ti := sc.pending[k]
		d, ok := sc.tentative(sc.uniq[ti], off)
		switch {
		case ok && float64(d) <= key:
			sc.res[ti] = float64(d)
			sc.pending[k] = sc.pending[len(sc.pending)-1]
			sc.pending = sc.pending[:len(sc.pending)-1]
		case !ok:
			allReached = false
		case float64(d) > ub:
			ub = float64(d)
		}
	}
	if left := len(sc.pending); left > 0 && left < before {
		g.rekey(sc, off)
	}
	return ub, allReached
}

// rekey re-aims the frontier at a pending set that just shrank: a fresh
// heuristic epoch, every live entry's key recomputed as dist + h over the
// targets that remain, stale entries dropped, and the heap rebuilt — all in
// the pooled heap's own storage, at most once per target per search. With
// h = 0 before and after there is nothing to re-aim.
func (g *Graph) rekey(sc *scratch, off geo.NodeID) {
	was := sc.hon
	sc.hcur = sc.newEpoch()
	sc.hon = g.heuristicPays(sc)
	if !was && !sc.hon {
		return
	}
	live := 0
	for _, it := range sc.heap {
		if it.dist > sc.dist[it.node] {
			continue // stale: a better entry for this state is queued or done
		}
		v := it.node
		if off > 0 && v >= off {
			v -= off
		}
		it.key = float64(it.dist) + g.heuristic(sc, v)
		sc.heap[live] = it
		live++
	}
	sc.heap = sc.heap[:live]
	sc.heap.heapify()
}

// drain ends a search whose queue ran dry: every reachable state's label is
// final, and targets never reached stay +Inf.
func (sc *scratch) drain(off geo.NodeID) {
	for _, ti := range sc.pending {
		if d, ok := sc.tentative(sc.uniq[ti], off); ok {
			sc.res[ti] = float64(d)
		}
	}
}

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
	sc := g.getScratch()
	d := g.costWith(sc, from, to)
	g.pool.Put(sc)
	return d
}

// costWith is Cost for from != to on a caller-held scratch.
func (g *Graph) costWith(sc *scratch, from, to geo.NodeID) float64 {
	// Landmark upper bound on the trip (src -> L -> to): lets the hierarchy
	// scale its fold-error deflation to the trip instead of the diameter.
	ubHint := math.Inf(1)
	if g.ch != nil {
		fp, tp := g.landRow(from), g.landRow(to)
		for i := 0; i+1 < len(fp); i += 2 {
			if ub := fp[i] + tp[i+1]; ub < ubHint {
				ubHint = ub
			}
		}
	}
	sc.setTargets(to)
	g.search(sc, from, math.Inf(1), ubHint)
	return sc.res[0]
}

// costALT answers a point-to-point query via the ALT engine whether or not
// a contraction hierarchy is built: the lockstep arm the hierarchy is
// property-tested against.
func (g *Graph) costALT(from, to geo.NodeID) float64 {
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
// full matrix.
func (g *Graph) costMatrixInto(sources, targets []geo.NodeID, maxCost float64, out []float64) {
	if len(targets) == 0 || len(sources) == 0 {
		return
	}
	sc := g.getScratch()
	g.matrixWith(sc, sources, targets, maxCost, out)
	g.pool.Put(sc)
}

// matrixWith is costMatrixInto on a caller-held scratch. All sources search
// one target set under the graph-wide deflation and no ubHint, which is what
// lets those that start with every target pending share heuristic values.
func (g *Graph) matrixWith(sc *scratch, sources, targets []geo.NodeID, maxCost float64, out []float64) {
	nt := len(targets)
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
// it, and +Inf is a legal report. All searches share one target set whose
// single target is pending for the whole of each of them: one heuristic
// epoch — one evaluation per node across the ring — and, on the hierarchy,
// one buildCone, pruned by the first search's budget, which no later one
// exceeds; as in a matrix they pass no ubHint, which would give each source
// its own deflation.
func (g *Graph) nearestInto(sources []geo.NodeID, target geo.NodeID, maxCost float64, out []float64) {
	if len(sources) == 0 {
		return
	}
	sc := g.getScratch()
	g.nearestWith(sc, sources, target, maxCost, out)
	g.pool.Put(sc)
}

// nearestWith is nearestInto on a caller-held scratch.
func (g *Graph) nearestWith(sc *scratch, sources []geo.NodeID, target geo.NodeID, maxCost float64, out []float64) {
	sc.setTargets(target)
	// Bounds go into out, then an insertion sort of the indices (rings hold
	// a handful of workers; stable, so equal bounds keep source order).
	ord := sc.ord[:0]
	for i, s := range sources {
		out[i] = g.CostLowerBound(s, target)
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
}

// searchFrom runs one exact multi-target A* from src over sc.uniq, filling
// sc.res (aligned with sc.uniq; +Inf for unreachable targets). Targets
// farther than budget may be left at +Inf: once the minimum queue key —
// an admissible lower bound on reaching any pending target — exceeds
// budget, no pending target can cost <= budget and the search stops.
func (g *Graph) searchFrom(sc *scratch, src geo.NodeID, budget float64) {
	if !g.begin(sc, src, g.altMul, g.altAbs) {
		return
	}
	cur := sc.cur
	sc.dist[src] = 0
	sc.gen[src] = cur
	sc.heap.push(heapItem[float64]{key: g.heuristic(sc, src), dist: 0, node: src})

	for len(sc.heap) > 0 {
		it := sc.heap.pop()
		sc.pops++
		g.settle(sc, it.key, 0)
		if len(sc.pending) == 0 || it.key > budget {
			// Done, or every pending target costs at least it.key > budget;
			// the caller treats beyond-budget entries as unreachable.
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
			sc.heap.push(heapItem[float64]{key: float64(nd) + g.heuristic(sc, v), dist: nd, node: v})
		}
	}
	sc.drain(0)
}
