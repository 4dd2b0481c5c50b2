package roadnet

import (
	"math"
	"time"

	"watter/internal/geo"
)

// Contraction-hierarchy preprocessing (queried by chquery.go).
//
// Build contracts nodes one at a time in a deterministic importance order
// (priority = edge difference + deleted neighbors, ties by node ID). When a
// node v is contracted, every in/out pair (u->v, v->w) that some shortest
// path might still need is replaced by a shortcut edge u->w that *remembers
// its two halves*: a shortcut is a tree over original edges, not a scalar
// weight. That distinction is what keeps the repo's float32-fold exactness
// contract intact — the query (chquery.go) relaxes a shortcut by unpacking
// it back to its original-edge sequence and folding the weights in float32,
// in path order, exactly as the reference Dijkstra would have. The float64
// sums stored here are used only to *prune the hierarchy* (witness searches
// and parallel-edge domination), and every pruning comparison carries a
// conservative margin covering the worst-case divergence between a float32
// fold and the float64 sum. Being conservative only ever ADDS shortcuts or
// KEEPS parallel edges; it can bloat the hierarchy, never break an answer.
//
// Determinism: the priority queue breaks ties by node ID, witness searches
// are bounded by fixed constants, and every float64 sum is a left-fold in
// construction order — so two Build calls over the same input produce
// bit-identical hierarchies (TestHierarchyDeterministic).
//
// The contraction stops early, leaving an uncontracted "core" plateau
// (about n/32 nodes): late contractions of the dense core would add far
// more shortcuts than they remove, and the query simply treats the core as
// one top level it may traverse freely while climbing.

const (
	// chAutoMinNodes is the Build() threshold above which the hierarchy is
	// constructed automatically. Below it ALT wins on queries as well as on
	// preprocessing: forced onto the benchmark's 1764-node grid_alt city
	// (threshold 0; three alternating pairs on a 2-core x86 box), the
	// hierarchy ran 0.66x the orders/s of ALT at 2.5x tick_p50 and 1.7x
	// setup_s, with budget-pruned cones (0.61x before them). Tests force
	// small-graph hierarchies with EnableHierarchy.
	chAutoMinNodes = 16384
	// chEps32 is the float32 unit roundoff (2^-24).
	chEps32 = 1.0 / (1 << 24)
	// chWitnessSettleCap bounds each witness search's settled nodes. Running
	// out of budget means "no witness found", which adds a (possibly
	// unnecessary) shortcut — safe, just fatter.
	chWitnessSettleCap = 64
	// chCoreDivisor sets where contraction stops: the top n/chCoreDivisor
	// nodes stay uncontracted as a core plateau the query may roam. The
	// late contractions are the expensive ones (degrees and witness-margin
	// hop counts both grow), and skipping them costs queries little — the
	// climb phase reaches the core in a few hops.
	chCoreDivisor = 32
)

// chEdge is one edge of the hierarchy's edge arena: an original road edge
// (c1 < 0, weight w32) or a shortcut whose two halves are the arena edges
// c1 then c2. w is the exact float64 sum of the unpacked original weights
// and hops their count; both are pruning metadata only. lbMul deflates a
// (label + w) sum to a certain lower bound on the float32 fold across this
// edge — the query checks it before paying for the fold, because most
// relaxations fail to improve anything. leafOff points at the edge's
// flattened original-weight sequence in hierarchy.leafW (alive edges only;
// filled by freezeCSR so queries fold a contiguous array instead of
// walking the shortcut tree).
type chEdge struct {
	from, to geo.NodeID
	w        float64
	lbMul    float64
	hops     int32
	c1, c2   int32
	leafOff  int32
	w32      float32
}

// hierarchy is the frozen contraction hierarchy: node ranks, the edge
// arena, and two CSR adjacencies over the *alive* arena edges — upEdges
// (rank-increasing, plus core-to-core) relaxed while a query climbs, and
// downEdges (rank-decreasing) relaxed while it descends.
type hierarchy struct {
	rank  []int32 // contraction order; core nodes share rank n
	edges []chEdge

	upHead, upEdge []int32
	dnHead, dnEdge []int32
	// Packed per-slot relax inputs, parallel to upEdge: the climb's inner
	// loop streams these four arrays instead of dereferencing the arena,
	// which would cost a cache miss per relaxation. upW/upLbM are rounded
	// toward -Inf so (label+upW)*upLbM stays a certain fold lower bound.
	upTo  []geo.NodeID
	upW   []float32
	upLbM []float32
	// Reverse-down CSR (downward edges indexed by head node): the query
	// walks it backward from each target to mark the target's descent cone.
	dnRevHead, dnRevEdge []int32
	// Arena-parallel rounded-down copies of w and lbMul (alive edges only),
	// so per-query cone bucketing copies float32s instead of re-rounding.
	wLo, lbmLo []float32
	// leafW holds every alive edge's unpacked original-edge weights in path
	// order, back to back (edge e owns leafW[e.leafOff : e.leafOff+e.hops]).
	leafW []float32

	shortcuts int
	coreSize  int

	// CH-arm heuristic deflation (see initCHSlack). chMul/chAbs play the
	// role of altMul/altAbs but derive the fold-error hop budget from edge
	// weights instead of the node count, so the heuristic gives up far less
	// pruning power on large connected graphs. They fall back to the ALT
	// constants when the weight-based bound is unavailable or no tighter.
	chMul, chAbs float64
	chTight      bool
	minw         float64 // smallest original edge weight (chTight only)
}

// hasHierarchy reports whether the contraction hierarchy is built.
func (g *Graph) hasHierarchy() bool { return g.ch != nil }

// numShortcuts reports how many shortcut edges the hierarchy added.
func (g *Graph) numShortcuts() int {
	if g.ch == nil {
		return 0
	}
	return g.ch.shortcuts
}

// coreSize reports how many nodes the contraction left uncontracted.
func (g *Graph) coreSize() int {
	if g.ch == nil {
		return 0
	}
	return g.ch.coreSize
}

// EnableHierarchy builds the contraction hierarchy regardless of graph
// size (Build does it automatically above chAutoMinNodes). Idempotent.
// Must not be called concurrently with queries.
func (g *Graph) EnableHierarchy() {
	if g.ch == nil {
		g.buildHierarchy()
	}
}

// chBuilder is the transient contraction state.
type chBuilder struct {
	g     *Graph
	n     int
	edges []chEdge
	alive []bool
	out   [][]int32 // node -> arena edges with from == node
	in    [][]int32 // node -> arena edges with to == node

	contracted []bool
	deleted    []int32 // deleted-neighbors priority term
	order      []int32 // contraction sequence; -1 while uncontracted

	marginK   float64 // 8*eps32*diamB: margin per (hops+2)
	diamB     float64
	diamTight bool // diam bound came from landmarks (strongly connected)

	// Witness-search scratch (generation-stamped).
	wDist []float64
	wHops []int32
	wGen  []uint32
	wTgt  []uint32 // target stamps for the all-settled early stop
	wCur  uint32
	wHeap minHeap[float64]

	// Per-simulation scratch.
	outsW, outsE []int32 // live out-neighbors of the contraction candidate
	shortBuf     []chEdge
	nbr          []geo.NodeID // distinct live neighbors (deleted-neighbors update)
}

// HierarchyBuildSeconds reports the wall-clock cost of the contraction
// preprocessing (0 when no hierarchy is built). Reporting only — the
// hierarchy itself is a pure function of the graph.
func (g *Graph) HierarchyBuildSeconds() float64 { return g.chBuildSecs }

// buildHierarchy contracts the graph into g.ch. Deterministic; runs once.
func (g *Graph) buildHierarchy() {
	start := time.Now()                                            //det:wallclock preprocessing wall-time for HierarchyBuildSeconds reporting; never feeds the hierarchy or any query
	defer func() { g.chBuildSecs = time.Since(start).Seconds() }() //det:wallclock observability field on the graph, outside every routing answer
	n := len(g.coords)
	b := &chBuilder{
		g:          g,
		n:          n,
		out:        make([][]int32, n),
		in:         make([][]int32, n),
		contracted: make([]bool, n),
		deleted:    make([]int32, n),
		order:      make([]int32, n),
		wDist:      make([]float64, n),
		wHops:      make([]int32, n),
		wGen:       make([]uint32, n),
		wTgt:       make([]uint32, n),
	}
	b.initDiamBound()
	b.marginK = 8 * chEps32 * b.diamB
	for i := range b.order {
		b.order[i] = -1
	}
	// Seed the arena with the original edges (exact duplicates folded away,
	// margin-dominated parallels dropped — both fold-safe, see insertEdge).
	for u := 0; u < n; u++ {
		for i := g.headIdx[u]; i < g.headIdx[u+1]; i++ {
			b.insertEdge(chEdge{
				from: geo.NodeID(u), to: g.adjNode[i],
				w: float64(g.adjCost[i]), hops: 1,
				c1: -1, c2: -1, w32: g.adjCost[i],
			})
		}
	}
	originals := len(b.edges)

	coreTarget := n / chCoreDivisor
	if coreTarget < 8 {
		coreTarget = 8
	}
	b.contractAll(coreTarget)

	h := &hierarchy{
		rank:      make([]int32, n),
		edges:     b.edges,
		shortcuts: len(b.edges) - originals,
	}
	for v := 0; v < n; v++ {
		if b.order[v] >= 0 {
			h.rank[v] = b.order[v]
		} else {
			h.rank[v] = int32(n) // core plateau
			h.coreSize++
		}
	}
	b.freezeCSR(h)
	g.initCHSlack(h, b.diamTight)
	g.ch = h
}

// initCHSlack derives the CH query's heuristic deflation. The ALT constants
// assume a fold of up to n-1 additions because that is all a simple path
// can have; but when the graph is strongly connected (every pairwise
// distance is at most 2*diam) and every edge weight is at least minw, any
// walk whose fold stays below a few diameters has at most ~8*diam/minw
// hops — usually orders of magnitude fewer than n. Deflating the landmark
// bounds by that hop budget instead of n keeps the heuristic admissible for
// every path the query's finalization and pruning rules must protect (their
// folds and labels all live below 4*diam, enforced by the maxUB guard in
// chSearchFrom), while shrinking the slack band the search must explore
// around the optimal corridor by the same factor. Falls back to the ALT
// constants whenever the weight-based budget is unavailable or no tighter.
func (g *Graph) initCHSlack(h *hierarchy, diamTight bool) {
	h.chMul, h.chAbs = g.altMul, g.altAbs
	if len(g.landmarks) == 0 || !diamTight {
		return
	}
	minw := math.Inf(1)
	for _, c := range g.adjCost {
		if fc := float64(c); fc < minw {
			minw = fc
		}
	}
	if !(minw > 0) {
		return
	}
	khop := math.Ceil(8 * g.diam / minw)
	if khop < 1 {
		khop = 1
	}
	n := float64(len(g.coords))
	slack := float64(4 * khop * chEps32) // rounded alone, so 1 - slack cannot fuse
	// Gates: the hop budget must be comfortably representable (so the
	// "k hops => fold >= k*minw*(7/8)" contradiction holds) and actually
	// tighter than the simple-path budget; otherwise keep ALT's constants.
	if khop*chEps32 > 1.0/64 || khop >= n || slack >= 4*n*chEps32 {
		return
	}
	h.chMul = 1 - slack
	h.chAbs = slack * 4 * g.diam
	h.chTight = true
	h.minw = minw
}

// f32Down converts x to the largest float32 that does not exceed it, so a
// bound computed from the converted value stays a bound.
func f32Down(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

// initDiamBound derives diamB, an upper bound on the float64 sum of any
// simple path — the scale of every pruning margin. The landmark arrays give
// a tight 2x-diameter bound when the graph is strongly connected; otherwise
// (disconnected property-test graphs, tiny forced hierarchies) the loose
// (n-1)*maxEdge bound is still sound because near-optimal folds ride on
// simple paths.
func (b *chBuilder) initDiamBound() {
	g := b.g
	var maxEdge float64
	for _, c := range g.adjCost {
		if fc := float64(c); fc > maxEdge {
			maxEdge = fc
		}
	}
	b.diamB = float64(b.n-1) * maxEdge
	if len(g.landmarks) == 0 {
		return
	}
	// Every node reaches landmark 0 and is reached from it: strongly
	// connected. Otherwise keep the loose bound.
	for v := 0; v < b.n; v++ {
		if row := g.landRow(geo.NodeID(v)); math.IsInf(row[0], 1) || math.IsInf(row[1], 1) {
			return
		}
	}
	b.diamTight = true
	if lb := 2 * g.diam; lb < b.diamB {
		b.diamB = lb
	}
}

// margin is the fold-vs-sum divergence bound for comparing two paths with
// a combined hop count h: two float64 path sums must differ by more than
// this before the corresponding float32 folds are guaranteed to order the
// same way for every shared prefix.
func (b *chBuilder) margin(h int32) float64 { return float64(b.marginK * float64(h+2)) } // converted: the callers' w-m cannot fuse

// liveOut returns u's overlay out-list, swap-compacting away edges that
// are dead or lead to contracted nodes (both conditions are permanent, so
// dropping the entries is safe; the arena still holds every edge for the
// final CSRs). The compaction is what keeps witness searches from
// re-scanning a contraction's whole history — it took the build from
// O(n^1.8) to roughly linear in practice. Deterministic: the removal
// pattern is a pure function of the operation sequence.
func (b *chBuilder) liveOut(u geo.NodeID) []int32 {
	lst := b.out[u]
	for k := 0; k < len(lst); {
		ei := lst[k]
		if !b.alive[ei] || b.contracted[b.edges[ei].to] {
			lst[k] = lst[len(lst)-1]
			lst = lst[:len(lst)-1]
			continue
		}
		k++
	}
	b.out[u] = lst
	return lst
}

// liveIn is liveOut for the overlay in-list.
func (b *chBuilder) liveIn(u geo.NodeID) []int32 {
	lst := b.in[u]
	for k := 0; k < len(lst); {
		ei := lst[k]
		if !b.alive[ei] || b.contracted[b.edges[ei].from] {
			lst[k] = lst[len(lst)-1]
			lst = lst[:len(lst)-1]
			continue
		}
		k++
	}
	b.in[u] = lst
	return lst
}

// insertEdge adds an arena edge between two uncontracted nodes, applying
// the parallel-edge rules: an exact duplicate (same original single edge)
// is folded away; a new edge whose float32 fold provably never beats an
// existing parallel edge (float64 sums more than margin apart) is dropped;
// an existing parallel the new edge provably always beats is killed. Edges
// within margin of each other coexist — the query relaxes both, so a
// near-tie can never silently lose the fold-optimal representative.
func (b *chBuilder) insertEdge(e chEdge) {
	for _, ei := range b.liveOut(e.from) {
		ex := &b.edges[ei]
		if ex.to != e.to {
			continue
		}
		if ex.hops == 1 && e.hops == 1 && ex.w32 == e.w32 {
			return // bitwise-identical original: one copy folds identically
		}
		m := b.margin(ex.hops + e.hops)
		if ex.w <= e.w-m {
			return // dominated: existing folds <= new for every prefix
		}
		if e.w <= ex.w-m {
			b.alive[ei] = false // new edge dominates the existing parallel
		}
	}
	idx := int32(len(b.edges))
	// A float32 left-fold of h non-negative additions starting from any
	// representable label loses at most a (1-eps32)^h factor against the
	// exact sum; +2 hops absorb the float64 dust in w itself.
	e.lbMul = 1 - float64(float64(e.hops+2)*chEps32) // converted: no fused multiply-subtract
	b.edges = append(b.edges, e)
	b.alive = append(b.alive, true)
	b.out[e.from] = append(b.out[e.from], idx)
	b.in[e.to] = append(b.in[e.to], idx)
}

// contractAll runs the lazy-update contraction loop until only coreTarget
// nodes remain uncontracted.
func (b *chBuilder) contractAll(coreTarget int) {
	// (priority, node) packed into one int64 key: a total order, so the
	// contraction sequence does not depend on how the heap breaks ties.
	entry := func(prio int32, v geo.NodeID) heapItem[int64] {
		return heapItem[int64]{key: int64(prio)<<32 | int64(v), node: v}
	}
	heap := make(minHeap[int64], 0, b.n)
	for v := 0; v < b.n; v++ {
		heap.push(entry(b.simulate(geo.NodeID(v)), geo.NodeID(v)))
	}
	seq := int32(0)
	remaining := b.n
	for remaining > coreTarget && len(heap) > 0 {
		top := heap.pop()
		if b.contracted[top.node] {
			continue
		}
		// Recompute lazily (fills shortBuf); a node whose priority rose past
		// the next candidate's goes back into the queue.
		cur := entry(b.simulate(top.node), top.node)
		if len(heap) > 0 && heap[0].key < cur.key {
			heap.push(cur)
			continue
		}
		b.contract(top.node, seq)
		seq++
		remaining--
	}
}

// simulate computes v's contraction priority (edge difference + deleted
// neighbors) and leaves the shortcut set a real contraction would add in
// b.shortBuf. A shortcut u->w is needed unless a bounded witness search
// (excluding v) finds a strictly shorter detour — shorter by the fold
// margin, so the detour's float32 fold beats the shortcut's for every
// prefix a query could arrive with.
func (b *chBuilder) simulate(v geo.NodeID) int32 {
	b.shortBuf = b.shortBuf[:0]
	b.outsW, b.outsE = b.outsW[:0], b.outsE[:0]
	for _, ei := range b.liveOut(v) {
		b.outsW = append(b.outsW, int32(b.edges[ei].to))
		b.outsE = append(b.outsE, ei)
	}
	liveOut := len(b.outsE)
	ins := b.liveIn(v)
	liveIn := len(ins)
	for _, ei := range ins {
		if len(b.outsW) == 0 {
			continue
		}
		ea := &b.edges[ei]
		u := ea.from
		maxW := 0.0
		for _, oe := range b.outsE {
			if w := ea.w + b.edges[oe].w; w > maxW {
				maxW = w
			}
		}
		b.witnessSearch(u, v, b.outsW, maxW)
		for k, oe := range b.outsE {
			w := geo.NodeID(b.outsW[k])
			if w == u {
				continue
			}
			eb := &b.edges[oe]
			sum := ea.w + eb.w
			hops := ea.hops + eb.hops
			if b.wGen[w] == b.wCur && sum <= 2*b.diamB &&
				b.wDist[w] < sum-b.margin(hops+b.wHops[w]) {
				continue // witness detour fold-dominates the shortcut
			}
			b.shortBuf = append(b.shortBuf, chEdge{
				from: u, to: w, w: sum, hops: hops, c1: ei, c2: oe,
			})
		}
	}
	return int32(len(b.shortBuf)-liveIn-liveOut) + b.deleted[v]
}

// contract applies the shortcut set simulate just computed for v.
func (b *chBuilder) contract(v geo.NodeID, seq int32) {
	for i := range b.shortBuf {
		b.insertEdge(b.shortBuf[i])
	}
	b.nbr = b.nbr[:0]
	for _, ei := range b.liveOut(v) {
		b.nbr = append(b.nbr, b.edges[ei].to)
	}
	for _, ei := range b.liveIn(v) {
		b.nbr = append(b.nbr, b.edges[ei].from)
	}
	b.contracted[v] = true
	b.order[v] = seq
	for i, x := range b.nbr {
		dup := false
		for _, y := range b.nbr[:i] {
			if x == y {
				dup = true
				break
			}
		}
		if !dup {
			b.deleted[x]++
		}
	}
}

// witnessSearch runs a bounded float64 Dijkstra from u over the live
// overlay excluding the contraction candidate v, stopping once the
// frontier exceeds bound, the settle budget runs out, or every node in
// targets has been settled (a settled distance is final, so continuing
// could not change what simulate reads — the early stop alters nothing
// but the build time). Tentative distances are real path sums, so an
// unsettled hit is still a valid witness; an exhausted budget just means
// "no witness", which is safe.
func (b *chBuilder) witnessSearch(u, v geo.NodeID, targets []int32, bound float64) {
	b.wCur++
	if b.wCur == 0 {
		for i := range b.wGen {
			b.wGen[i] = 0
			b.wTgt[i] = 0
		}
		b.wCur = 1
	}
	open := 0
	for _, w := range targets {
		if geo.NodeID(w) != u && b.wTgt[w] != b.wCur {
			b.wTgt[w] = b.wCur
			open++
		}
	}
	b.wDist[u] = 0
	b.wHops[u] = 0
	b.wGen[u] = b.wCur
	b.wHeap = append(b.wHeap[:0], heapItem[float64]{node: u})
	settled := 0
	for len(b.wHeap) > 0 && settled < chWitnessSettleCap && open > 0 {
		it := b.wHeap.pop()
		if it.key > bound {
			return
		}
		if it.key > b.wDist[it.node] {
			continue
		}
		settled++
		if b.wTgt[it.node] == b.wCur {
			b.wTgt[it.node] = b.wCur - 1
			open--
		}
		for _, ei := range b.liveOut(it.node) {
			e := &b.edges[ei]
			if e.to == v {
				continue
			}
			nd := it.key + e.w
			if b.wGen[e.to] == b.wCur && nd >= b.wDist[e.to] {
				continue
			}
			b.wDist[e.to] = nd
			b.wHops[e.to] = b.wHops[it.node] + e.hops
			b.wGen[e.to] = b.wCur
			b.wHeap.push(heapItem[float64]{key: nd, node: e.to})
		}
	}
}

// freezeCSR splits the alive arena edges into the climb (rank-increasing
// or core-to-core) and descend (rank-decreasing) CSR adjacencies. Arena
// order is deterministic, so the CSRs are too.
func (b *chBuilder) freezeCSR(h *hierarchy) {
	n := b.n
	upCount := make([]int32, n)
	dnCount := make([]int32, n)
	up := func(e *chEdge) bool {
		rf, rt := h.rank[e.from], h.rank[e.to]
		return rt > rf || (rf == int32(n) && rt == int32(n))
	}
	nUp, nDn := 0, 0
	for i := range b.edges {
		if !b.alive[i] {
			continue
		}
		if up(&b.edges[i]) {
			upCount[b.edges[i].from]++
			nUp++
		} else {
			dnCount[b.edges[i].from]++
			nDn++
		}
	}
	h.upHead = make([]int32, n+1)
	h.dnHead = make([]int32, n+1)
	for v := 0; v < n; v++ {
		h.upHead[v+1] = h.upHead[v] + upCount[v]
		h.dnHead[v+1] = h.dnHead[v] + dnCount[v]
	}
	h.upEdge = make([]int32, nUp)
	h.dnEdge = make([]int32, nDn)
	upFill := make([]int32, n)
	dnFill := make([]int32, n)
	copy(upFill, h.upHead[:n])
	copy(dnFill, h.dnHead[:n])
	for i := range b.edges {
		if !b.alive[i] {
			continue
		}
		e := &b.edges[i]
		if up(e) {
			h.upEdge[upFill[e.from]] = int32(i)
			upFill[e.from]++
		} else {
			h.dnEdge[dnFill[e.from]] = int32(i)
			dnFill[e.from]++
		}
	}
	h.wLo = make([]float32, len(b.edges))
	h.lbmLo = make([]float32, len(b.edges))
	for i := range b.edges {
		if b.alive[i] {
			h.wLo[i] = f32Down(b.edges[i].w)
			h.lbmLo[i] = f32Down(b.edges[i].lbMul)
		}
	}
	h.upTo = make([]geo.NodeID, nUp)
	h.upW = make([]float32, nUp)
	h.upLbM = make([]float32, nUp)
	for k, ei := range h.upEdge {
		h.upTo[k] = b.edges[ei].to
		h.upW[k] = h.wLo[ei]
		h.upLbM[k] = h.lbmLo[ei]
	}
	// Transpose the downward edges by head node for the query's
	// target-cone marking pass.
	for i := range dnCount {
		dnCount[i] = 0
	}
	for _, ei := range h.dnEdge {
		dnCount[b.edges[ei].to]++
	}
	h.dnRevHead = make([]int32, n+1)
	for v := 0; v < n; v++ {
		h.dnRevHead[v+1] = h.dnRevHead[v] + dnCount[v]
	}
	h.dnRevEdge = make([]int32, nDn)
	copy(dnFill, h.dnRevHead[:n])
	for _, ei := range h.dnEdge {
		h.dnRevEdge[dnFill[b.edges[ei].to]] = ei
		dnFill[b.edges[ei].to]++
	}
	// Flatten every alive edge's shortcut tree into its original-edge
	// weight sequence, in path order (c1's leaves before c2's). Children
	// may be dominated-dead arena edges; their trees are still intact.
	var total int64
	for i := range b.edges {
		b.edges[i].leafOff = -1
		if b.alive[i] {
			total += int64(b.edges[i].hops)
		}
	}
	h.leafW = make([]float32, 0, total)
	var stk []int32
	for i := range b.edges {
		if !b.alive[i] {
			continue
		}
		h.edges[i].leafOff = int32(len(h.leafW))
		stk = append(stk[:0], int32(i))
		for len(stk) > 0 {
			e := &h.edges[stk[len(stk)-1]]
			stk = stk[:len(stk)-1]
			if e.c1 < 0 {
				h.leafW = append(h.leafW, e.w32)
				continue
			}
			stk = append(stk, e.c2, e.c1)
		}
	}
}
