package roadnet

import (
	"math"

	"watter/internal/geo"
)

// ALT preprocessing (A*, Landmarks, Triangle inequality). Build selects a
// small set of landmarks by farthest-point sampling and stores, for every
// landmark L, the distances dist(L -> v) and dist(v -> L) (the latter via
// the reverse graph), packed by node into Graph.landPack. A query then
// lower-bounds dist(v, t) with
//
//	max_L( dist(v,L) - dist(t,L), dist(L,t) - dist(L,v) )
//
// which both engines use as their A* heuristic (landGap, then each engine's
// own deflation).
//
// Exactness contract: the engine must reproduce the float32 left-fold
// shortest-path value of the full Dijkstra bit-for-bit. Landmark distances
// are therefore computed in float64 (error ~1e-12 relative) and every lower
// bound is deflated by a conservative slack (altMul/altAbs) covering the
// worst-case float32 fold error of any shortest path, so the heuristic is
// admissible with respect to the float32 metric, not just the real one.
// Admissibility plus the reinsertion-based search in pp.go make the engine
// exact; the deflation costs a sliver of pruning power, never correctness.

// numLandmarks reports how many ALT landmarks Build precomputed (0 for
// tiny graphs, where plain goal-stopped search wins).
func (g *Graph) numLandmarks() int { return len(g.landmarks) }

// defaultLandmarkCount picks how many landmarks Build precomputes. Tiny
// graphs skip ALT entirely: a plain goal-stopped Dijkstra already explores
// next to nothing, and landmark arrays would cost more than they save.
func defaultLandmarkCount(n int) int {
	if n < 32 {
		return 0
	}
	k := n / 16
	if k > 8 {
		k = 8
	}
	return k
}

// initLandmarks runs farthest-point landmark selection and fills the packed
// landmark table and the admissibility slack. The per-landmark distance
// columns exist only here, until they are interleaved into landPack.
func (g *Graph) initLandmarks(k int) {
	n := len(g.coords)
	if k <= 0 || n < 2 {
		return
	}
	// Seed: the node farthest (by forward distance) from node 0; fall back
	// to node 0 for graphs where nothing is reachable. Deterministic.
	seedDist := g.dijkstraF64(0, false)
	first := geo.NodeID(0)
	bestD := -1.0
	for v, d := range seedDist {
		if !math.IsInf(d, 1) && d > bestD {
			bestD = d
			first = geo.NodeID(v)
		}
	}

	minDist := make([]float64, n) // distance to the nearest chosen landmark
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	isLandmark := make([]bool, n)
	var landFrom, landTo [][]float64 // [i][v] = dist(L_i -> v), dist(v -> L_i)

	for len(g.landmarks) < k {
		var L geo.NodeID
		if len(g.landmarks) == 0 {
			L = first
		} else {
			// Farthest-point step: the reachable node most distant from
			// every chosen landmark; ties break toward the lower id.
			L = geo.InvalidNode
			bestD = 0
			for v := 0; v < n; v++ {
				d := minDist[v]
				if isLandmark[v] || math.IsInf(d, 1) {
					continue
				}
				if d > bestD {
					bestD = d
					L = geo.NodeID(v)
				}
			}
			if L == geo.InvalidNode || bestD == 0 {
				break // graph exhausted (all reachable nodes are landmarks)
			}
		}
		isLandmark[L] = true
		from := g.dijkstraF64(L, false)
		to := g.dijkstraF64(L, true)
		g.landmarks = append(g.landmarks, L)
		landFrom = append(landFrom, from)
		landTo = append(landTo, to)
		for v := 0; v < n; v++ {
			if from[v] < minDist[v] {
				minDist[v] = from[v]
			}
		}
	}
	k2 := 2 * len(g.landmarks)
	g.landPack = make([]float64, n*k2)
	for i := range g.landmarks {
		for v := 0; v < n; v++ {
			g.landPack[v*k2+2*i] = landTo[i][v]
			g.landPack[v*k2+2*i+1] = landFrom[i][v]
		}
	}
	g.initALTSlack()
}

// initALTSlack derives the admissibility deflation from the graph size and
// an upper bound on the diameter. Any float32 left-fold of a path with at
// most n-1 hops differs from the exact sum by less than n*eps32 relative;
// a 4x margin also absorbs the float64 error of the landmark arrays.
func (g *Graph) initALTSlack() {
	const eps32 = 1.0 / (1 << 24)
	n := float64(len(g.coords))
	slack := 4 * n * eps32
	if slack >= 1 {
		// Pathological size: no sound deflation exists, disable the
		// heuristic (searches degrade to goal-stopped Dijkstra).
		g.landmarks = nil
		g.landPack = nil
		return
	}
	var diam float64
	for _, d := range g.landPack {
		if !math.IsInf(d, 1) && d > diam {
			diam = d
		}
	}
	g.diam = diam
	g.altMul = 1 - slack
	g.altAbs = slack * 2 * diam
}

// landRow is node v's row of the packed landmark table: for each landmark,
// dist(v -> L) then dist(L -> v). Empty when the graph has no landmarks.
func (g *Graph) landRow(v geo.NodeID) []float64 {
	k2 := 2 * len(g.landmarks)
	return g.landPack[int(v)*k2 : int(v)*k2+k2]
}

// landGap is the raw triangle-inequality bound on dist(v, t) from the two
// nodes' landmark rows, before any deflation (0 when no landmark helps). A
// +Inf gap is exact, not heuristic: dist(v,L)=Inf with dist(t,L) finite
// proves v cannot reach t (a v->t path would extend to v->t->L). The Inf-Inf
// case yields NaN, which every comparison rejects.
func landGap(vp, tp []float64) float64 {
	var lb float64
	tp = tp[:len(vp)]
	for i := 0; i+1 < len(vp); i += 2 {
		if d := vp[i] - tp[i]; d > lb {
			lb = d
		}
		if d := tp[i+1] - vp[i+1]; d > lb {
			lb = d
		}
	}
	return lb
}

// deflate turns a raw landmark gap into a bound admissible for the float32
// fold metric under the given slack (altMul/altAbs, or the hierarchy's
// chMul/chAbs); +Inf stays +Inf.
func deflate(lb, mul, abs float64) float64 {
	if lb <= 0 {
		return 0
	}
	lb = lb*mul - abs
	if lb < 0 {
		return 0
	}
	return lb
}

// altBound returns the admissible ALT lower bound on the float32
// shortest-path distance from v to t (0 when no landmark helps, +Inf only as
// landGap's unreachability proof).
func (g *Graph) altBound(v, t geo.NodeID) float64 {
	return deflate(landGap(g.landRow(v), g.landRow(t)), g.altMul, g.altAbs)
}

// CostLowerBound implements BoundedNetwork: the landmark bound the engine
// answering Cost uses as its A* heuristic, exposed so a caller can decide a
// threshold question without running a search — chBound when a hierarchy is
// built, altBound otherwise. Both are admissible for the float32-fold metric
// Cost reports, and +Inf only as an unreachability proof.
func (g *Graph) CostLowerBound(from, to geo.NodeID) float64 {
	if from == to {
		return 0
	}
	if g.ch != nil {
		return g.chBound(from, to)
	}
	return g.altBound(from, to)
}

// dijkstraF64 runs a float64 single-source Dijkstra over the forward CSR
// (reverse=false) or the transposed CSR (reverse=true, giving distances
// *to* src). Preprocessing only — queries never call this.
func (g *Graph) dijkstraF64(src geo.NodeID, reverse bool) []float64 {
	n := len(g.coords)
	head, adj, cost := g.headIdx, g.adjNode, g.adjCost
	if reverse {
		head, adj, cost = g.revHead, g.revNode, g.revCost
	}
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	q := minHeap[float64]{{node: src}}
	for len(q) > 0 {
		it := q.pop()
		if it.key > dist[it.node] {
			continue
		}
		for i := head[it.node]; i < head[it.node+1]; i++ {
			v := adj[i]
			nd := it.key + float64(cost[i])
			if nd < dist[v] {
				dist[v] = nd
				q.push(heapItem[float64]{key: nd, node: v})
			}
		}
	}
	return dist
}
