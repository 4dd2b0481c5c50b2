// Package geo provides the small geometric and temporal primitives shared by
// every other package in the WATTER reproduction: planar points and boxes
// and the node/second conventions used throughout.
//
// Conventions:
//   - All times and durations are float64 seconds since simulation start.
//   - All coordinates are float64 meters in a planar city frame.
//   - Road-network locations are NodeID values; only internal/roadnet can
//     translate a NodeID back to a Point.
package geo

import "math"

// NodeID identifies a location (vertex) on a road network.
type NodeID int32

// InvalidNode is the zero-value-distinguishable "no node" sentinel.
const InvalidNode NodeID = -1

// Point is a planar position in meters.
type Point struct {
	X, Y float64
}

// Rect is an axis-aligned bounding box.
type Rect struct {
	Min, Max Point
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Clamp returns p moved to the closest point inside r.
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		Y: math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}
