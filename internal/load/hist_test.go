package load

import "testing"

// TestHistQuantile pins the quantile semantics: an upper bound within one
// bucket width (~9%) of the true quantile, clamped to the exact max.
func TestHistQuantile(t *testing.T) {
	h := &Hist{}
	for i := 1; i <= 1000; i++ {
		h.Record(float64(i) * 0.01) // 0.01s .. 10.00s uniform
	}
	if got := h.Quantile(1); got != 10.0 {
		t.Fatalf("p100 = %v, want the exact max 10.0", got)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 5.0}, {0.99, 9.9}, {0.999, 9.99},
	} {
		got := h.Quantile(c.q)
		if got < c.want || got > c.want*1.095 {
			t.Errorf("q%.3f = %v, want in [%v, %v]", c.q, got, c.want, c.want*1.095)
		}
	}
	empty := &Hist{}
	if empty.Quantile(0.99) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram must report zero quantiles and mean")
	}
	if h.Mean() < 5.0 || h.Mean() > 5.01 {
		t.Errorf("mean = %v, want ~5.005 exactly accumulated", h.Mean())
	}
}

// TestHistEdges pins the bucket layout's boundary behavior.
func TestHistEdges(t *testing.T) {
	h := &Hist{}
	h.Record(-3)  // clamps to 0
	h.Record(0)   // bucket 0
	h.Record(1e9) // far beyond the top bucket: clamps, max stays exact
	if h.Count() != 3 {
		t.Fatalf("count %d, want 3", h.Count())
	}
	if h.Max() != 1e9 {
		t.Fatalf("max %v, want exact 1e9", h.Max())
	}
	if got := h.Quantile(1); got != 1e9 {
		t.Fatalf("p100 %v, want clamped to observed max", got)
	}
	if got := h.Quantile(0.3); got != histMin {
		t.Fatalf("q0.3 = %v, want the underflow bucket edge %v", got, histMin)
	}
}
