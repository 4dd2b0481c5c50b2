package roadnet

import (
	"math"

	"watter/internal/geo"
)

// Contraction-hierarchy query engine (hierarchy built by contract.go).
//
// The query is the same exact multi-target A* as pp.go's searchFrom, run
// over the shortcut-augmented graph with a two-phase state space: state
// (v, climb) relaxes upward edges (rank-increasing, plus the core plateau)
// and may switch to (w, descend) over a downward edge; state (v, descend)
// relaxes downward edges only. Every minimal float32 fold is achieved by
// some climb-then-descend path (contract.go's witness margins guarantee a
// fold-dominating replacement exists whenever a contraction removes a
// path shape), and every state label *is* an exact float32 fold of real
// original edges — a shortcut is relaxed by unpacking it back to its
// original-edge sequence and folding in path order. So the search needs
// no new exactness argument: the ALT heuristic is admissible for the fold
// metric over all real paths, a superset of the two-phase paths, and the
// finalization rule is inherited from searchFrom verbatim. The phases are
// purely pruning: the climb frontier stays on the small up-cone instead of
// reflooding the Dijkstra ball, which is where the size-independent query
// cost comes from. On top of the phases sit three more exact prunes: the
// heuristic runs with chBound's weight-based hop-budget deflation instead
// of ALT's node-count slack (initCHSlack), per-edge fold lower bounds skip
// relaxations before unpacking anything, and single-target queries prime
// the skip threshold from the landmark upper bound (ubHint) so pruning
// starts at the first pop.

// coneEdge is one bucketed cone-incoming edge: the arena index (for the
// fold), the intrusive next pointer of its tail-node bucket, and the packed
// relax inputs.
type coneEdge struct {
	ei, next int32
	to       geo.NodeID
	w, lbm   float32
}

// buildCone marks the union of the current targets' descent cones under a
// fresh cone stamp, pruned by the search budget. Every target is
// expanded — its incoming down edges bucketed and their tails queued — and
// any other queued node x only while some target t has chBound(x, t) <=
// budget. A path that descends through a pruned x folds at least
// cost(x, t) >= chBound(x, t) > budget from x on, so every target whose cost
// is within budget keeps its whole optimal descent (DESIGN §13). A +Inf (or
// NaN) budget prunes nothing; a +Inf bound is an unreachability proof and
// prunes.
func (g *Graph) buildCone(sc *scratch, budget float64) {
	h := g.ch
	if sc.coneEp == sc.tcur {
		sc.nextCone() // a rebuild for a larger budget: drop the old marks and buckets
	}
	sc.coneQ = sc.coneQ[:0]
	for _, t := range sc.uniq {
		if sc.coneMark[t] != sc.tcur {
			sc.coneMark[t] = sc.tcur
			sc.coneQ = append(sc.coneQ, int32(t))
		}
	}
	roots := len(sc.coneQ)
	prune := budget < math.Inf(1)
	sc.tPack = sc.tPack[:0]
	for qi := 0; qi < len(sc.coneQ); qi++ {
		x := sc.coneQ[qi]
		if prune && qi >= roots && !g.coneReaches(sc, geo.NodeID(x), budget) {
			continue
		}
		for i := h.dnRevHead[x]; i < h.dnRevHead[x+1]; i++ {
			ei := h.dnRevEdge[i]
			e := &h.edges[ei]
			f := e.from
			// Bucket this cone-incoming edge under its tail node.
			if sc.tStamp[f] != sc.tcur {
				sc.tStamp[f] = sc.tcur
				sc.tFirst[f] = -1
			}
			sc.tPack = append(sc.tPack, coneEdge{
				ei: ei, next: sc.tFirst[f], to: e.to,
				w: h.wLo[ei], lbm: h.lbmLo[ei],
			})
			sc.tFirst[f] = int32(len(sc.tPack) - 1)
			if sc.coneMark[f] != sc.tcur {
				sc.coneMark[f] = sc.tcur
				sc.coneQ = append(sc.coneQ, int32(f))
			}
		}
	}
	sc.coneEp, sc.coneBudget = sc.tcur, budget
	sc.coneEdges += uint64(len(sc.tPack))
}

// coneReaches reports whether some target's bound from x admits budget.
// Written as "not every bound exceeds it" so that only a bound proven above
// the budget prunes.
func (g *Graph) coneReaches(sc *scratch, x geo.NodeID, budget float64) bool {
	for _, t := range sc.uniq {
		if !(g.chBound(x, t) > budget) {
			return true
		}
	}
	return false
}

// chFold extends the float32 fold d across arena edge ei over the edge's
// flattened original-weight sequence, in path order — the exact additions
// the reference Dijkstra performs along the unpacked path.
func (g *Graph) chFold(d float32, ei int32) float32 {
	e := &g.ch.edges[ei]
	for _, w := range g.ch.leafW[e.leafOff : e.leafOff+e.hops] {
		d += w
	}
	return d
}

// chBound is altBound with the hierarchy's (usually much tighter) fold-error
// deflation from initCHSlack: the same landmark gap, so the same +Inf
// semantics.
func (g *Graph) chBound(v, t geo.NodeID) float64 {
	return deflate(landGap(g.landRow(v), g.landRow(t)), g.ch.chMul, g.ch.chAbs)
}

// chSearchFrom runs one exact multi-target two-phase A* from src over
// sc.uniq, filling sc.res (+Inf for unreachable; targets beyond budget may
// be left +Inf). Structure, finalization, and budget semantics mirror
// searchFrom — see the comment at the top of this file for why the answers are
// bit-identical to the reference Dijkstra's.
func (g *Graph) chSearchFrom(sc *scratch, src geo.NodeID, budget, ubHint float64) {
	inf := math.Inf(1)
	h32 := g.ch
	n := geo.NodeID(len(g.coords))

	// Heuristic deflation for this search: the graph-wide chMul/chAbs by
	// default, tightened further for single-pair queries where ubHint (a
	// landmark upper bound on the trip) lets the hop budget scale with the
	// trip instead of the diameter. Every quantity the admissibility proof
	// bounds by the diameter is then bounded by ubHint instead: protected
	// folds stay below 2*ubHint (enforced by guardQ on the maxUBh prune and
	// implied by final distance <= ubHint for the finalize invariant), so a
	// budget of 4*ubHint/minw hops covers them with slack to spare.
	chMulQ, chAbsQ, guardQ := h32.chMul, h32.chAbs, 4*g.diam
	if h32.chTight && ubHint > 0 && !math.IsInf(ubHint, 1) {
		khop := math.Ceil(4 * ubHint / h32.minw)
		if khop < 16 {
			khop = 16
		}
		if slack := float64(4 * khop * chEps32); slack < 1-h32.chMul { // rounded alone, so 1 - slack cannot fuse
			chMulQ = 1 - slack
			chAbsQ = slack * 2 * ubHint
			guardQ = 2 * ubHint
		}
	}

	// Contraction preserves reachability, so begin's unreachability proof
	// holds here as it does on ALT.
	if !g.begin(sc, src, chMulQ, chAbsQ) {
		return
	}
	cur := sc.cur
	// The target set's cone serves any budget up to the one it was pruned
	// for; a larger (or NaN) budget needs it rebuilt.
	if sc.coneEp != sc.tcur || !(budget <= sc.coneBudget) {
		g.buildCone(sc, budget)
	}
	mcur := sc.tcur

	sc.dist[src] = 0
	sc.gen[src] = cur
	sc.heap.push(heapItem[float64]{key: g.heuristic(sc, src), dist: 0, node: src})

	// maxUB is the worst tentative distance among pending targets once all
	// of them have one (+Inf before that). A relaxation whose fold lower
	// bound reaches maxUB cannot improve any pending target, so skipping it
	// leaves every result bit-identical. maxUBh additionally folds in the
	// heuristic, which is only sound while the tight chMul/chAbs hop budget
	// covers every walk below maxUB — hence the 4*diam guard where it is
	// refreshed.
	maxUB := inf
	maxUBh := inf
	// Prime the pruning bounds from the landmark upper bound: every fold the
	// search must protect stays below ubHint*(1+slack) (the final distance is
	// at most ubHint times the fold error), so relaxations at or above that
	// can be skipped from the very first pop instead of only after the
	// target is reached. Single-target only — ubHint bounds one trip.
	if h32.chTight && len(sc.uniq) == 1 && ubHint > 0 && !math.IsInf(ubHint, 1) {
		ubInit := ubHint * (1 + float64(8*(1-chMulQ))) // converted: no fused multiply-add
		maxUB = ubInit
		if ubInit <= guardQ {
			maxUBh = ubInit
		}
	}
	// relax never escapes, so its closure and captures stay on the stack.
	relax := func(it heapItem[float64], ei int32, st geo.NodeID, w, lbm float64) {
		// Certain lower bound on the fold across this edge: skipping on it
		// is exact, and it avoids unpacking the shortcut at all for the
		// (majority of) relaxations that cannot improve anything. The maxUB
		// test runs first: it needs no memory access, while the label test
		// reads two per-state arrays.
		lb := (float64(it.dist) + w) * lbm
		if lb >= maxUB {
			return
		}
		if sc.gen[st] == cur && lb >= float64(sc.dist[st]) {
			return
		}
		v := st
		if v >= n {
			v -= n
		}
		if float64(lb)+g.heuristic(sc, v) >= maxUBh { // lb is a product: converted, it cannot fuse
			return
		}
		nd := g.chFold(it.dist, ei)
		if sc.gen[st] == cur && nd >= sc.dist[st] {
			return
		}
		sc.dist[st] = nd
		sc.gen[st] = cur
		sc.heap.push(heapItem[float64]{key: float64(nd) + g.heuristic(sc, v), dist: nd, node: st})
	}

	for len(sc.heap) > 0 {
		it := sc.heap.pop()
		sc.pops++
		// it.key lower-bounds every remaining improving path's fold, exactly
		// as in searchFrom; a target at or below it is final. The same scan
		// refreshes maxUB for the relax pruning above.
		ub, allReached := g.settle(sc, it.key, n)
		if allReached {
			maxUB = ub
			if h32.chTight && ub <= guardQ {
				maxUBh = ub
			} else {
				maxUBh = inf
			}
		}
		if len(sc.pending) == 0 || it.key > budget {
			sc.heap = sc.heap[:0]
			sc.clampBeyond(budget)
			return
		}
		if it.dist > sc.dist[it.node] {
			continue
		}
		v := it.node
		if v < n { // climbing: may keep climbing, or descend into a cone
			for i := h32.upHead[v]; i < h32.upHead[v+1]; i++ {
				relax(it, h32.upEdge[i], h32.upTo[i], float64(h32.upW[i]), float64(h32.upLbM[i]))
			}
			if sc.tStamp[v] == mcur {
				for j := sc.tFirst[v]; j >= 0; {
					e := &sc.tPack[j]
					relax(it, e.ei, e.to+n, float64(e.w), float64(e.lbm))
					j = e.next
				}
			}
		} else { // descending: the cone's own down edges only
			v -= n
			if sc.tStamp[v] == mcur {
				for j := sc.tFirst[v]; j >= 0; {
					e := &sc.tPack[j]
					relax(it, e.ei, e.to+n, float64(e.w), float64(e.lbm))
					j = e.next
				}
			}
		}
	}
	sc.drain(n)
	sc.clampBeyond(budget)
}

// clampBeyond reports every target beyond budget as +Inf. Under a pruned
// cone such a target's label may be the fold of a detour whose better route
// the prune removed, and the search would finalize it as if it were the
// cost; the budget contract allows +Inf there. Within the budget every
// label the search finalizes is exact.
func (sc *scratch) clampBeyond(budget float64) {
	for k, d := range sc.res {
		if d > budget {
			sc.res[k] = math.Inf(1)
		}
	}
}
