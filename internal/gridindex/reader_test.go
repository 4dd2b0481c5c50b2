package gridindex

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// TestProbeReaderMatchesIndex: a ProbeReader runs the identical budgeted
// ring search as the index's own ClosestIdleWithin — same worker, same
// cost, for random fleets, probe points, budgets and capacities — and the
// candidate record contains exactly the idle in-budget workers the search
// costed (in particular, always the winner).
func TestProbeReaderMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := roadnet.NewGridCity(30, 30, 100, 10)
	ix := New(net, 10)
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(40)
		workers := make([]*order.Worker, n)
		for i := range workers {
			workers[i] = &order.Worker{
				ID:       i + 1,
				Loc:      net.Node(rng.Intn(30), rng.Intn(30)),
				Capacity: 1 + rng.Intn(4),
				FreeAt:   float64(rng.Intn(3)) * 50,
			}
		}
		wi := NewWorkerIndex(ix, net, workers)
		r := wi.NewReader()
		for q := 0; q < 40; q++ {
			node := net.Node(rng.Intn(30), rng.Intn(30))
			now := float64(rng.Intn(3)) * 50
			minCap := 1 + rng.Intn(4)
			maxCost := math.Inf(1)
			if rng.Intn(2) == 0 {
				maxCost = float64(rng.Intn(400))
			}
			iw, ic := wi.ClosestIdleWithin(node, now, minCap, maxCost)
			rw, rc, cands := r.ClosestIdleWithin(node, now, minCap, maxCost)
			if iw != rw || ic != rc {
				t.Fatalf("trial %d query %d: index (%v, %v) != reader (%v, %v)", trial, q, iw, ic, rw, rc)
			}
			if rw == nil {
				continue
			}
			found := false
			for _, id := range cands {
				if int(id) == rw.ID {
					found = true
				}
				// Every recorded candidate is a real in-budget idle worker.
				cw := workers[id-1]
				if !cw.IdleAt(now) || cw.Capacity < minCap || net.Cost(cw.Loc, node) > maxCost {
					t.Fatalf("trial %d query %d: recorded candidate %d is not an in-budget idle worker", trial, q, id)
				}
			}
			if !found {
				t.Fatalf("candidate record misses the winner %d: %v", rw.ID, cands)
			}
		}
	}
}

// TestProbeReadersConcurrent: multiple readers probe the same quiescent
// index concurrently and all agree with the sequential answer (run under
// -race in CI).
func TestProbeReadersConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := roadnet.NewGridCity(25, 25, 100, 10)
	ix := New(net, 10)
	workers := make([]*order.Worker, 50)
	for i := range workers {
		workers[i] = &order.Worker{
			ID: i + 1, Loc: net.Node(rng.Intn(25), rng.Intn(25)), Capacity: 4,
		}
	}
	wi := NewWorkerIndex(ix, net, workers)
	type query struct {
		node geo.NodeID
		want *order.Worker
		cost float64
	}
	queries := make([]query, 64)
	for i := range queries {
		node := net.Node(rng.Intn(25), rng.Intn(25))
		w, c := wi.ClosestIdleWithin(node, 0, 1, math.Inf(1))
		queries[i] = query{node, w, c}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := wi.NewReader()
			for i := g; i < len(queries); i += 4 {
				w, c, _ := r.ClosestIdleWithin(queries[i].node, 0, 1, math.Inf(1))
				if w != queries[i].want || c != queries[i].cost {
					t.Errorf("query %d: concurrent reader got (%v, %v), want (%v, %v)",
						i, w, c, queries[i].want, queries[i].cost)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMoveObserverFires: Update reports the old and new cell for moves and
// the (same) cell for in-place state changes.
func TestMoveObserverFires(t *testing.T) {
	net := roadnet.NewGridCity(20, 20, 100, 10)
	ix := New(net, 10)
	w := &order.Worker{ID: 1, Loc: net.Node(0, 0), Capacity: 4}
	wi := NewWorkerIndex(ix, net, []*order.Worker{w})
	var gotOld, gotNew []int
	wi.SetMoveObserver(func(_ *order.Worker, oldCell, newCell int) {
		gotOld = append(gotOld, oldCell)
		gotNew = append(gotNew, newCell)
	})
	home := ix.CellOf(w.Loc)
	// In-place booking: same cell on both sides.
	w.FreeAt = 100
	mustUpdate(t, wi, w)
	// Relocation to the far corner.
	w.Loc = net.Node(19, 19)
	mustUpdate(t, wi, w)
	far := ix.CellOf(w.Loc)
	if len(gotOld) != 2 || gotOld[0] != home || gotNew[0] != home || gotOld[1] != home || gotNew[1] != far {
		t.Fatalf("observer saw old=%v new=%v, want old=[%d %d] new=[%d %d]", gotOld, gotNew, home, home, home, far)
	}
	wi.SetMoveObserver(nil)
	w.Loc = net.Node(0, 0)
	mustUpdate(t, wi, w) // must not panic with the observer removed
}

// TestBoundedProbeMatchesLegacyOracle: on a graph network the probe costs
// each ring through roadnet.FillNearestWithin (bound-ordered searches under
// a shrinking budget); over roadnet.Reference, which offers no bound and no
// batched path, the same index prices every ring in full, pair by pair. Both must name the same worker at the same cost — for
// the ALT and the hierarchy arm, fleets with co-located and busy workers,
// finite and infinite budgets — and the reader's candidate record must stay
// a set of idle in-budget workers that contains the winner.
func TestBoundedProbeMatchesLegacyOracle(t *testing.T) {
	for _, hierarchy := range []bool{false, true} {
		g := roadnet.NewPerturbedGrid(16, 16, 150, 8, 0.4, 21)
		if hierarchy {
			g.EnableHierarchy()
		}
		ref := roadnet.Reference(g)
		ix := New(g, 8)
		rng := rand.New(rand.NewSource(77))
		pruned := 0
		for trial := 0; trial < 15; trial++ {
			workers := make([]*order.Worker, 5+rng.Intn(60))
			for i := range workers {
				workers[i] = &order.Worker{
					ID:       i + 1,
					Loc:      geo.NodeID(rng.Intn(g.NumNodes())),
					Capacity: 1 + rng.Intn(4),
					FreeAt:   float64(rng.Intn(3)) * 50,
				}
				if i > 0 && rng.Intn(6) == 0 {
					workers[i].Loc = workers[i-1].Loc
				}
			}
			wi := NewWorkerIndex(ix, g, workers)
			r, lr := wi.NewReader(), NewWorkerIndex(ix, ref, workers).NewReader()
			for q := 0; q < 40; q++ {
				node := geo.NodeID(rng.Intn(g.NumNodes()))
				now := float64(rng.Intn(3)) * 50
				minCap := 1 + rng.Intn(4)
				maxCost := math.Inf(1)
				if rng.Intn(3) > 0 {
					maxCost = float64(rng.Intn(500))
				}
				lw, lc, full := lr.ClosestIdleWithin(node, now, minCap, maxCost)
				w, c, cands := r.ClosestIdleWithin(node, now, minCap, maxCost)
				if w != lw || math.Float64bits(c) != math.Float64bits(lc) {
					t.Fatalf("hierarchy=%v trial %d query %d: bounded (%v, %v) != reference (%v, %v)",
						hierarchy, trial, q, w, c, lw, lc)
				}
				if iw, ic := wi.ClosestIdleWithin(node, now, minCap, maxCost); iw != w || ic != c {
					t.Fatalf("hierarchy=%v: index (%v, %v) != its reader (%v, %v)", hierarchy, iw, ic, w, c)
				}
				// The reference record is every idle in-budget worker of the
				// scanned rings; the bounded one is a subset holding the winner.
				found := w == nil
				for _, id := range cands {
					if !slices.Contains(full, id) {
						t.Fatalf("hierarchy=%v: recorded candidate %d is not an in-budget idle worker of the scanned rings %v",
							hierarchy, id, full)
					}
					found = found || int(id) == w.ID
				}
				if !found {
					t.Fatalf("hierarchy=%v: candidate record %v misses the winner %d", hierarchy, cands, w.ID)
				}
				if len(cands) < len(full) {
					pruned++
				}
			}
		}
		if pruned == 0 {
			t.Fatalf("hierarchy=%v: no probe ever left an in-budget worker unsearched; the bounded path did not run", hierarchy)
		}
	}
}
