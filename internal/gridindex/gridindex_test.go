package gridindex

import (
	"math"
	"testing"
	"testing/quick"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

func testNet() *roadnet.GridCity { return roadnet.NewGridCity(20, 20, 100, 10) }

func TestCellOfCorners(t *testing.T) {
	net := testNet()
	ix := New(net, 10)
	if got := ix.CellOf(net.Node(0, 0)); got != 0 {
		t.Fatalf("origin cell = %d", got)
	}
	if got := ix.CellOf(net.Node(19, 19)); got != ix.NumCells()-1 {
		t.Fatalf("far corner cell = %d, want %d", got, ix.NumCells()-1)
	}
}

func TestCellOfPointClamps(t *testing.T) {
	ix := New(testNet(), 10)
	if got := ix.CellOfPoint(geo.Point{X: -1e6, Y: -1e6}); got != 0 {
		t.Fatalf("clamped low cell = %d", got)
	}
	if got := ix.CellOfPoint(geo.Point{X: 1e6, Y: 1e6}); got != ix.NumCells()-1 {
		t.Fatalf("clamped high cell = %d", got)
	}
}

func TestCellRoundTripProperty(t *testing.T) {
	net := testNet()
	ix := New(net, 10)
	n := uint32(net.NumNodes())
	f := func(raw uint32) bool {
		node := geo.NodeID(raw % n)
		cell := ix.CellOf(node)
		if cell < 0 || cell >= ix.NumCells() {
			return false
		}
		x, y := ix.CellXY(cell)
		return y*ix.N()+x == cell
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// cellDist returns the Chebyshev ring distance between two cells, the
// distance Ring enumerates cells by.
func (ix *Index) cellDist(a, b int) int {
	ax, ay := ix.CellXY(a)
	bx, by := ix.CellXY(b)
	return int(math.Max(math.Abs(float64(ax-bx)), math.Abs(float64(ay-by))))
}

// closestIdle is the unbudgeted probe: ClosestIdleWithin at +Inf.
func (wi *WorkerIndex) closestIdle(node geo.NodeID, now float64, minCapacity int) *order.Worker {
	w, _ := wi.ClosestIdleWithin(node, now, minCapacity, math.Inf(1))
	return w
}

func TestCellDist(t *testing.T) {
	ix := New(testNet(), 10)
	a := 0        // (0,0)
	b := 3*10 + 4 // (4,3)
	if got := ix.cellDist(a, b); got != 4 {
		t.Fatalf("cellDist = %d, want 4", got)
	}
	if got := ix.cellDist(b, b); got != 0 {
		t.Fatalf("self dist = %d", got)
	}
	if ix.cellDist(a, b) != ix.cellDist(b, a) {
		t.Fatal("cellDist must be symmetric")
	}
}

func TestRingCoverage(t *testing.T) {
	ix := New(testNet(), 10)
	center := 5*10 + 5
	seen := map[int]bool{}
	for d := 0; d <= ix.N(); d++ {
		ix.Ring(center, d, func(cell int) bool {
			if seen[cell] {
				t.Fatalf("cell %d visited twice", cell)
			}
			if ix.cellDist(center, cell) != d {
				t.Fatalf("cell %d at ring %d has dist %d", cell, d, ix.cellDist(center, cell))
			}
			seen[cell] = true
			return true
		})
	}
	if len(seen) != ix.NumCells() {
		t.Fatalf("rings covered %d of %d cells", len(seen), ix.NumCells())
	}
}

func TestRingEarlyStop(t *testing.T) {
	ix := New(testNet(), 10)
	calls := 0
	completed := ix.Ring(0, 1, func(cell int) bool {
		calls++
		return false
	})
	if completed || calls != 1 {
		t.Fatalf("early stop failed: completed=%v calls=%d", completed, calls)
	}
}

func TestDistributionNormalize(t *testing.T) {
	d := Distribution{2, 0, 6}
	d.Normalize()
	if math.Abs(d[0]-0.25) > 1e-12 || math.Abs(d[2]-0.75) > 1e-12 {
		t.Fatalf("normalized = %v", d)
	}
	zero := Distribution{0, 0}
	zero.Normalize() // must not NaN
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatalf("zero vector changed: %v", zero)
	}
}

func TestClosestIdleWorker(t *testing.T) {
	net := testNet()
	ix := New(net, 10)
	workers := []*order.Worker{
		{ID: 1, Loc: net.Node(0, 0), Capacity: 4},
		{ID: 2, Loc: net.Node(10, 10), Capacity: 4},
		{ID: 3, Loc: net.Node(19, 19), Capacity: 4},
	}
	wi := NewWorkerIndex(ix, net, workers)
	if len(wi.workers) != 3 {
		t.Fatalf("len = %d", len(wi.workers))
	}
	got := wi.closestIdle(net.Node(9, 9), 0, 1)
	if got == nil || got.ID != 2 {
		t.Fatalf("closest = %+v, want worker 2", got)
	}
	// Busy workers are skipped.
	workers[1].FreeAt = 100
	mustUpdate(t, wi, workers[1])
	got = wi.closestIdle(net.Node(9, 9), 0, 1)
	if got == nil || got.ID == 2 {
		t.Fatalf("busy worker returned: %+v", got)
	}
	// They come back once free.
	got = wi.closestIdle(net.Node(9, 9), 100, 1)
	if got == nil || got.ID != 2 {
		t.Fatalf("freed worker not found: %+v", got)
	}
}

func TestClosestIdleCapacityFilter(t *testing.T) {
	net := testNet()
	ix := New(net, 10)
	workers := []*order.Worker{
		{ID: 1, Loc: net.Node(5, 5), Capacity: 2},
		{ID: 2, Loc: net.Node(15, 15), Capacity: 4},
	}
	wi := NewWorkerIndex(ix, net, workers)
	got := wi.closestIdle(net.Node(5, 5), 0, 3)
	if got == nil || got.ID != 2 {
		t.Fatalf("capacity filter failed: %+v", got)
	}
	if got := wi.closestIdle(net.Node(5, 5), 0, 5); got != nil {
		t.Fatalf("impossible capacity returned %+v", got)
	}
}

func TestClosestIdleMatchesBruteForce(t *testing.T) {
	net := testNet()
	ix := New(net, 10)
	var workers []*order.Worker
	for i := 0; i < 40; i++ {
		workers = append(workers, &order.Worker{
			ID:       i,
			Loc:      net.Node((i*7)%20, (i*13)%20),
			Capacity: 2 + i%3,
		})
	}
	wi := NewWorkerIndex(ix, net, workers)
	for q := 0; q < 25; q++ {
		target := net.Node((q*3)%20, (q*11)%20)
		got := wi.closestIdle(target, 0, 1)
		var want *order.Worker
		for _, w := range workers {
			if want == nil || net.Cost(w.Loc, target) < net.Cost(want.Loc, target) ||
				(net.Cost(w.Loc, target) == net.Cost(want.Loc, target) && w.ID < want.ID) {
				want = w
			}
		}
		if got.ID != want.ID &&
			net.Cost(got.Loc, target) != net.Cost(want.Loc, target) {
			t.Fatalf("query %d: got worker %d (cost %v), want %d (cost %v)",
				q, got.ID, net.Cost(got.Loc, target), want.ID, net.Cost(want.Loc, target))
		}
	}
}

func TestWorkerIndexUpdate(t *testing.T) {
	net := testNet()
	ix := New(net, 10)
	w := &order.Worker{ID: 1, Loc: net.Node(0, 0), Capacity: 4}
	wi := NewWorkerIndex(ix, net, []*order.Worker{w})
	w.Loc = net.Node(19, 19)
	mustUpdate(t, wi, w)
	got := wi.closestIdle(net.Node(18, 18), 0, 1)
	if got == nil || got.ID != 1 {
		t.Fatal("moved worker not found near new location")
	}
	// Same-cell move is a no-op but must stay correct.
	w.Loc = net.Node(18, 19)
	mustUpdate(t, wi, w)
	if got := wi.closestIdle(net.Node(18, 18), 0, 1); got == nil {
		t.Fatal("worker lost after same-cell update")
	}
}

func TestSupplyDistribution(t *testing.T) {
	net := testNet()
	ix := New(net, 10)
	workers := []*order.Worker{
		{ID: 1, Loc: net.Node(0, 0), Capacity: 4},
		{ID: 2, Loc: net.Node(0, 0), Capacity: 4},
		{ID: 3, Loc: net.Node(19, 19), Capacity: 4, FreeAt: 50},
	}
	wi := NewWorkerIndex(ix, net, workers)
	d := wi.SupplyDistribution(0)
	if math.Abs(d[0]-1.0) > 1e-12 {
		t.Fatalf("cell 0 share = %v (busy worker must be excluded)", d[0])
	}
	d = wi.SupplyDistribution(60)
	if math.Abs(d[0]-2.0/3) > 1e-12 {
		t.Fatalf("cell 0 share after 60s = %v", d[0])
	}
}
