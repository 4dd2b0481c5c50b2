// Package roadnet provides the road-network substrate every WATTER component
// travels on: an explicit weighted graph whose exact shortest-path costs come
// from the ALT engine or, at city scale, a contraction hierarchy (with the
// plain Dijkstra kept as the Reference the tests compare both against), and
// a closed-form grid-metric city (used for large-scale benchmark sweeps where
// millions of cost queries must stay cheap).
//
// The rest of the system depends only on the Network interface: a travel
// time oracle cost(l1, l2) in seconds plus enough geometry to build spatial
// indexes. The paper's shortest travel cost "cost(li, lj)" maps directly to
// Network.Cost.
package roadnet

import (
	"fmt"
	"math"

	"watter/internal/geo"
)

// Network is a travel-time oracle over a fixed set of locations.
//
// Implementations must be safe for concurrent readers after construction.
type Network interface {
	// NumNodes returns the number of locations; valid NodeIDs are
	// [0, NumNodes).
	NumNodes() int
	// Coord returns the planar position of a node in meters.
	Coord(n geo.NodeID) geo.Point
	// Cost returns the shortest travel time in seconds from one node to
	// another. Cost(n, n) is 0. Unreachable pairs return +Inf. The result
	// is >= 0 or +Inf, never NaN: the route DP's doom rule (DESIGN.md §5)
	// relies on every leg being non-negative.
	Cost(from, to geo.NodeID) float64
	// Bounds returns the bounding box of all node coordinates.
	Bounds() geo.Rect
}

// BoundedNetwork is an optional Network extension for callers whose
// question is a threshold, not a value: CostLowerBound never exceeds Cost
// and takes a few dozen flops where Cost runs a search. +Inf is returned
// only as a proof that to is unreachable from from. Networks whose Cost is
// already O(1) (GridCity) have no use for it and do not implement it.
type BoundedNetwork interface {
	Network
	CostLowerBound(from, to geo.NodeID) float64
}

// FloorNetwork is an optional Network extension for callers that prune by
// geometry: MinSecondsPerMetre returns r > 0 such that no trip is faster
// than r seconds per metre of L1 (Manhattan) distance between its
// endpoints' coordinates, Cost(a, b) >= r * (|ax-bx| + |ay-by|) with a and b
// at Coord(a) and Coord(b). The float64 values Coord, Cost and r itself
// carry rounding, so the inequality may fail by up to 16 * 2^-53 * r * E
// seconds, E being the extent |Min.X| + |Min.Y| + width + height of Bounds;
// a caller comparing a floor against a Cost leaves a margin wider than
// that (gridindex's cell floor, DESIGN §13). GridCity states it exactly.
type FloorNetwork interface {
	Network
	MinSecondsPerMetre() float64
}

// MetricNetwork is an optional Network extension for callers that prune by
// lookahead: the route DP drops a route prefix once the direct leg to a stop
// it still owes already misses that stop's deadline (DESIGN.md §5), which
// is sound only where no detour beats the direct leg. For all nodes a, b, c,
//
//	Cost(a, c) <= (Cost(a, b) + Cost(b, c)) * (1 + TriangleSlack())
//
// with the sum and product taken exactly. The slack is a relative rounding
// allowance, not a modelling tolerance: a network whose costs are only
// nearly metric (a Graph's float32 path folds, a wrapper that rescales or
// removes legs) does not implement the interface. GridCity states it.
type MetricNetwork interface {
	Network
	TriangleSlack() float64
}

// matrixFiller is the engine form of FillCostMatrixWithin: one pruned search
// per distinct source instead of len(sources)*len(targets) oracle calls.
type matrixFiller interface {
	costMatrixInto(sources, targets []geo.NodeID, maxCost float64, out []float64)
}

// nearestFiller is the engine form of FillNearestWithin.
type nearestFiller interface {
	nearestInto(sources []geo.NodeID, target geo.NodeID, maxCost float64, out []float64)
}

// FillCostMatrix fills out (row-major, len >= len(sources)*len(targets))
// with out[i*len(targets)+j] = Cost(sources[i], targets[j]), using the
// network's batched engine when it has one and falling back to pairwise
// Cost calls otherwise (closed-form networks like GridCity answer each pair
// in O(1), so the fallback is already optimal for them). This is the
// allocation-free call the route planner's leg matrix and the worker
// index's ring ranking are built on.
func FillCostMatrix(net Network, sources, targets []geo.NodeID, out []float64) {
	FillCostMatrixWithin(net, sources, targets, math.Inf(1), out)
}

// FillCostMatrixWithin is FillCostMatrix with a travel-time budget: entries
// whose cost exceeds maxCost may be reported as +Inf instead of their exact
// value (every entry <= maxCost is exact). A batched engine uses the budget
// to stop each search early, which keeps queries cheap when the caller only
// wants candidates within a deadline slack.
func FillCostMatrixWithin(net Network, sources, targets []geo.NodeID, maxCost float64, out []float64) {
	if m, ok := net.(matrixFiller); ok {
		m.costMatrixInto(sources, targets, maxCost, out)
		return
	}
	nt := len(targets)
	for i, s := range sources {
		row := out[i*nt : (i+1)*nt]
		for j, t := range targets {
			row[j] = net.Cost(s, t)
		}
	}
}

// FillNearestWithin answers "which of sources is closest to target, within
// maxCost" without pricing every source. It fills out (len >= len(sources))
// under an argmin contract: every source whose cost attains the minimum over
// sources, when that minimum is <= maxCost, is reported exactly; any other
// entry is either exact or +Inf. The (cost, tie-break) argmin over out is
// therefore the argmin over the full FillCostMatrixWithin column, which is
// what networks without a bounding engine are given.
func FillNearestWithin(net Network, sources []geo.NodeID, target geo.NodeID, maxCost float64, out []float64) {
	if m, ok := net.(nearestFiller); ok {
		m.nearestInto(sources, target, maxCost, out)
		return
	}
	for i, s := range sources {
		out[i] = net.Cost(s, target)
	}
}

// ValidateNode returns an error if n is not a node of net.
func ValidateNode(net Network, n geo.NodeID) error {
	if n < 0 || int(n) >= net.NumNodes() {
		return fmt.Errorf("roadnet: node %d out of range [0,%d)", n, net.NumNodes())
	}
	return nil
}
