package geo

import "testing"

func TestRect(t *testing.T) {
	r := Rect{Min: Point{0, 0}, Max: Point{10, 5}}
	if r.Width() != 10 || r.Height() != 5 {
		t.Fatalf("dims = %v x %v", r.Width(), r.Height())
	}
	for _, edge := range []Point{{10, 5}, {0, 0}} {
		if got := r.Clamp(edge); got != edge {
			t.Fatalf("Clamp moved edge point %v to %v; edges must be inclusive", edge, got)
		}
	}
	if got := r.Clamp(Point{-3, 99}); got != (Point{0, 5}) {
		t.Fatalf("Clamp = %v", got)
	}
	if got := r.Clamp(Point{4, 4}); got != (Point{4, 4}) {
		t.Fatalf("Clamp of inside point = %v", got)
	}
}
