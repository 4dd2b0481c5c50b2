package gridindex

import (
	"fmt"
	"math"
	"testing"

	"watter/internal/order"
)

// watermarkErr checks the invariant the closest-worker probe skips cells
// by: every cell's watermark is exactly the earliest FreeAt among the
// workers filed there, +Inf for an empty cell.
func watermarkErr(wi *WorkerIndex) error {
	for cell, bucket := range wi.cells {
		want := math.Inf(1)
		for _, w := range bucket {
			want = math.Min(want, w.FreeAt)
		}
		if got := wi.minFree[cell]; got != want {
			return fmt.Errorf("cell %d: watermark %v, earliest FreeAt of its %d workers %v", cell, got, len(bucket), want)
		}
	}
	return nil
}

// mustUpdate is WorkerIndex.Update followed by the watermark invariant.
func mustUpdate(t testing.TB, wi *WorkerIndex, w *order.Worker) {
	t.Helper()
	wi.Update(w)
	if err := watermarkErr(wi); err != nil {
		t.Fatalf("after Update of worker %d: %v", w.ID, err)
	}
}
