package gridindex

import (
	"math"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// detourNet builds a line city designed to break grid/road agreement:
//
//	pickup(0,0) ── 10s ── (100,0) ── 10s ── (200,0) ── 10s ── far(300,0)
//	   └────────────── 500s ─────────── near(50,0)
//	                                    island(60,0)   (no edges at all)
//
// "near" and "island" share the pickup's grid cell; "far" is three cells
// away but thirty road-seconds close.
func detourNet(t *testing.T) (*roadnet.Graph, [5]geo.NodeID) {
	t.Helper()
	var b roadnet.GraphBuilder
	pickup := b.AddNode(geo.Point{X: 0, Y: 0})
	near := b.AddNode(geo.Point{X: 50, Y: 0})
	island := b.AddNode(geo.Point{X: 60, Y: 0})
	mid1 := b.AddNode(geo.Point{X: 100, Y: 0})
	mid2 := b.AddNode(geo.Point{X: 200, Y: 0})
	far := b.AddNode(geo.Point{X: 300, Y: 0})
	b.AddBidirectional(pickup, near, 500)
	b.AddBidirectional(pickup, mid1, 10)
	b.AddBidirectional(mid1, mid2, 10)
	b.AddBidirectional(mid2, far, 10)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, [5]geo.NodeID{pickup, near, island, mid1, far}
}

// TestClosestIdleSkipsUnreachableWorker is the regression test for the
// dispatch bug: a grid-near but disconnected worker used to win the ring
// search with +Inf cost, shadowing a reachable worker two rings out, and
// DispatchGroup then rejected the order.
func TestClosestIdleSkipsUnreachableWorker(t *testing.T) {
	g, n := detourNet(t)
	pickup, island, far := n[0], n[2], n[4]
	ix := New(g, 4)
	if ix.CellOf(island) != ix.CellOf(pickup) {
		t.Fatalf("test setup: island cell %d != pickup cell %d", ix.CellOf(island), ix.CellOf(pickup))
	}
	stranded := &order.Worker{ID: 1, Loc: island, Capacity: 4}
	reachable := &order.Worker{ID: 2, Loc: far, Capacity: 4}
	wi := NewWorkerIndex(ix, g, []*order.Worker{stranded, reachable})

	got := wi.closestIdle(pickup, 0, 1)
	if got == nil {
		t.Fatal("no worker found despite a reachable one")
	}
	if got.ID != reachable.ID {
		t.Fatalf("picked worker %d, want reachable worker %d", got.ID, reachable.ID)
	}

	// With only the stranded worker, the query must come back empty rather
	// than hand out an infinite-cost candidate.
	wiOnly := NewWorkerIndex(ix, g, []*order.Worker{stranded})
	if w := wiOnly.closestIdle(pickup, 0, 1); w != nil {
		t.Fatalf("returned unreachable worker %d", w.ID)
	}
}

// TestKNearestSkipsUnreachableWorker: the k-nearest candidate list must not
// contain workers that cannot reach the target at all.
func TestKNearestSkipsUnreachableWorker(t *testing.T) {
	g, n := detourNet(t)
	pickup, near, island, far := n[0], n[1], n[2], n[4]
	ix := New(g, 4)
	workers := []*order.Worker{
		{ID: 1, Loc: island, Capacity: 4},
		{ID: 2, Loc: far, Capacity: 4},
		{ID: 3, Loc: near, Capacity: 4},
	}
	wi := NewWorkerIndex(ix, g, workers)
	got := wi.KNearest(pickup, 3, nil)
	if len(got) != 2 {
		t.Fatalf("got %d workers, want 2 (the island worker excluded)", len(got))
	}
	for _, w := range got {
		if w.ID == 1 {
			t.Fatal("unreachable worker in KNearest result")
		}
	}
	// Ordering is by road cost: far (30s) before near (500s).
	if got[0].ID != 2 || got[1].ID != 3 {
		t.Fatalf("order = [%d %d], want [2 3]", got[0].ID, got[1].ID)
	}
}

// TestClosestIdleWithinBudget: the travel-time budget excludes workers whose
// approach would blow a deadline, falling back to a farther-in-grid but
// faster-by-road candidate.
func TestClosestIdleWithinBudget(t *testing.T) {
	g, n := detourNet(t)
	pickup, near, far := n[0], n[1], n[4]
	ix := New(g, 4)
	slow := &order.Worker{ID: 1, Loc: near, Capacity: 4} // 500s by road, same cell
	fast := &order.Worker{ID: 2, Loc: far, Capacity: 4}  // 30s by road, 3 cells out
	wi := NewWorkerIndex(ix, g, []*order.Worker{slow, fast})

	w, c := wi.ClosestIdleWithin(pickup, 0, 1, 100)
	if w == nil || w.ID != fast.ID {
		t.Fatalf("got %+v, want the fast worker", w)
	}
	if c != 30 {
		t.Fatalf("cost = %v, want 30", c)
	}
	// A budget below every approach returns nothing.
	if w, _ := wi.ClosestIdleWithin(pickup, 0, 1, 20); w != nil {
		t.Fatalf("budget 20 returned worker %d", w.ID)
	}
	// Without a budget the ring search stops one ring past its first hit
	// and settles for the grid-near worker — the documented approximation.
	// The budget is what forces the walk past an infeasible early hit.
	if w, _ := wi.ClosestIdleWithin(pickup, 0, 1, math.Inf(1)); w == nil || w.ID != slow.ID {
		t.Fatal("unbounded query should stop at the first-ring hit")
	}
}
