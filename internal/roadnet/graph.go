package roadnet

import (
	"fmt"
	"math"
	"sync"

	"watter/internal/geo"
)

// Graph is an explicit weighted directed road graph. Cost is answered by
// one ladder, chosen from the graph's size and never by the caller: the
// contraction hierarchy when one is built (Build does so at chAutoMinNodes
// and above; chquery.go) and the ALT engine otherwise (pp.go) — A* guided by
// landmark lower bounds precomputed at Build time. Both return the float32
// left-fold shortest-path value of the full Dijkstra bit for bit; that
// Dijkstra survives only as Reference, the oracle tests and benchmarks
// compare the engines against.
//
// A Graph is immutable after Build (EnableHierarchy aside, which must not
// race with queries); all mutable search state lives in pooled scratches.
type Graph struct {
	coords []geo.Point
	// CSR adjacency (forward) and its transpose (reverse, used by the
	// landmark preprocessing to compute distances *to* each landmark).
	headIdx []int32 // len = numNodes+1
	adjNode []geo.NodeID
	adjCost []float32
	revHead []int32
	revNode []geo.NodeID
	revCost []float32
	bounds  geo.Rect

	// ALT preprocessing (immutable after Build; see alt.go). landPack is the
	// one landmark table both engines read, node-major over the k landmarks:
	// landPack[v*2k+2i] = dist(v -> landmarks[i]), [v*2k+2i+1] =
	// dist(landmarks[i] -> v), so a bound between two nodes touches two
	// contiguous rows instead of 2k scattered columns.
	landmarks []geo.NodeID
	landPack  []float64
	altMul    float64 // multiplicative admissibility slack
	altAbs    float64 // absolute admissibility slack (seconds)

	// diam is the largest finite landmark distance observed during ALT
	// preprocessing — an observed lower bound on the diameter that doubles
	// as a sound 2x upper bound when the graph is strongly connected. The
	// contraction hierarchy's pruning margins are scaled from it.
	diam float64

	// Contraction hierarchy (see contract.go / chquery.go): nil until Build
	// (>= chAutoMinNodes nodes) or EnableHierarchy constructs it.
	ch          *hierarchy
	chBuildSecs float64 // wall-clock cost of buildHierarchy (benchmark reporting only)

	// pool recycles per-query search state (see scratch in pp.go).
	pool sync.Pool
}

// edge is a temporary construction-time edge.
type edge struct {
	from, to geo.NodeID
	cost     float32
}

// GraphBuilder accumulates nodes and edges before freezing them into a
// Graph's CSR representation.
type GraphBuilder struct {
	coords []geo.Point
	edges  []edge
}

// AddNode appends a node at p and returns its NodeID.
func (b *GraphBuilder) AddNode(p geo.Point) geo.NodeID {
	b.coords = append(b.coords, p)
	return geo.NodeID(len(b.coords) - 1)
}

// AddEdge adds a directed edge with the given travel time in seconds.
func (b *GraphBuilder) AddEdge(from, to geo.NodeID, seconds float64) {
	b.edges = append(b.edges, edge{from, to, float32(seconds)})
}

// AddBidirectional adds edges in both directions with the same travel time.
func (b *GraphBuilder) AddBidirectional(u, v geo.NodeID, seconds float64) {
	b.AddEdge(u, v, seconds)
	b.AddEdge(v, u, seconds)
}

// Build freezes the builder into a Graph and runs the ALT preprocessing
// (landmark selection plus per-landmark distance arrays). The builder must
// not be reused.
func (b *GraphBuilder) Build() (*Graph, error) {
	n := len(b.coords)
	if n == 0 {
		return nil, fmt.Errorf("roadnet: graph has no nodes")
	}
	for _, e := range b.edges {
		if e.from < 0 || int(e.from) >= n || e.to < 0 || int(e.to) >= n {
			return nil, fmt.Errorf("roadnet: edge (%d,%d) references unknown node", e.from, e.to)
		}
		if !(e.cost >= 0) { // NaN too: a search would never settle it
			return nil, fmt.Errorf("roadnet: edge (%d,%d) has negative or NaN cost %f", e.from, e.to, e.cost)
		}
	}
	g := &Graph{
		coords:  b.coords,
		headIdx: make([]int32, n+1),
		adjNode: make([]geo.NodeID, len(b.edges)),
		adjCost: make([]float32, len(b.edges)),
		revHead: make([]int32, n+1),
		revNode: make([]geo.NodeID, len(b.edges)),
		revCost: make([]float32, len(b.edges)),
	}
	counts := make([]int32, n)
	for _, e := range b.edges {
		counts[e.from]++
	}
	for i := 0; i < n; i++ {
		g.headIdx[i+1] = g.headIdx[i] + counts[i]
	}
	fill := make([]int32, n)
	copy(fill, g.headIdx[:n])
	for _, e := range b.edges {
		g.adjNode[fill[e.from]] = e.to
		g.adjCost[fill[e.from]] = e.cost
		fill[e.from]++
	}
	for i := range counts {
		counts[i] = 0
	}
	for _, e := range b.edges {
		counts[e.to]++
	}
	for i := 0; i < n; i++ {
		g.revHead[i+1] = g.revHead[i] + counts[i]
	}
	copy(fill, g.revHead[:n])
	for _, e := range b.edges {
		g.revNode[fill[e.to]] = e.from
		g.revCost[fill[e.to]] = e.cost
		fill[e.to]++
	}
	g.bounds = boundsOf(g.coords)
	g.initLandmarks(defaultLandmarkCount(n))
	if n >= chAutoMinNodes {
		// Real-city scale: ALT query cost grows with the corridor, so the
		// contraction hierarchy pays for itself within a few leg matrices.
		// Small graphs skip it; tests and the benchmark's metro_ch
		// workload force it with EnableHierarchy.
		g.buildHierarchy()
	}
	return g, nil
}

func boundsOf(pts []geo.Point) geo.Rect {
	r := geo.Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// NumNodes implements Network.
func (g *Graph) NumNodes() int { return len(g.coords) }

// Coord implements Network.
func (g *Graph) Coord(n geo.NodeID) geo.Point { return g.coords[n] }

// Bounds implements Network.
func (g *Graph) Bounds() geo.Rect { return g.bounds }

// Reference returns g's travel times as the plain full Dijkstra computes
// them: one uncached float32 single-source run per Cost call. It is the
// oracle the engines are validated against, so it deliberately implements
// nothing but Network — no batched matrix fill, no nearest-of-many, no
// lower bound. A planner, index or simulation handed Reference(g) therefore
// runs filter-free and pairwise, and must decide exactly what it decides on
// g itself.
//
//det:api the oracle the route, gridindex, exp, roadnet and root tests compare the engines against
func Reference(g *Graph) Network { return reference{g} }

type reference struct{ g *Graph }

func (r reference) NumNodes() int                { return r.g.NumNodes() }
func (r reference) Coord(n geo.NodeID) geo.Point { return r.g.Coord(n) }
func (r reference) Bounds() geo.Rect             { return r.g.Bounds() }

func (r reference) Cost(from, to geo.NodeID) float64 {
	if from == to {
		return 0
	}
	return float64(r.g.dijkstra(from)[to])
}

// dijkstra is the reference: full single-source shortest paths with every
// relaxation folded in float32 (nd = dist[u] + w), the arithmetic the
// engines reproduce. It allocates per call; no dispatch path reaches it.
func (g *Graph) dijkstra(src geo.NodeID) []float32 {
	dist := make([]float32, len(g.coords))
	inf := float32(math.Inf(1))
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	q := minHeap[float64]{{node: src}}
	for len(q) > 0 {
		it := q.pop()
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		for i := g.headIdx[it.node]; i < g.headIdx[it.node+1]; i++ {
			v := g.adjNode[i]
			nd := it.dist + g.adjCost[i]
			if nd < dist[v] {
				dist[v] = nd
				q.push(heapItem[float64]{key: float64(nd), dist: nd, node: v})
			}
		}
	}
	return dist
}
