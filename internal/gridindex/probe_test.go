package gridindex

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// probeCase is one decoded FuzzClosestIdleWithin input: a network, a grid,
// a fleet and a script of probes and worker updates.
type probeCase struct {
	net     roadnet.Network
	n       int
	workers []*order.Worker
	ops     []probeOp
}

// probeOp is a probe (update == false) or a worker state change.
type probeOp struct {
	update bool
	// probe
	node     geo.NodeID
	now      float64
	minCap   int
	budget   float64
	atCostW  int  // >= 0: the budget is this worker's exact cost to node
	atWinner bool // the budget is the cost of the probe's answer at +Inf
	ulpBelow bool // an at-cost budget is taken one ulp below that cost
	// update
	worker int
	freeAt float64
	loc    geo.NodeID
	move   bool
}

// decodeProbeCase reads a 6-byte header — flags (bit 0 a jittered graph
// instead of a GridCity; on a graph bit 1 builds its contraction hierarchy,
// bit 2 makes its rows one-way, bit 3 adds a node with no edge and one that
// can only be left, bit 4 makes every seventh street free; on a GridCity
// bit 1 aligns cell boundaries with lattice lines, bits 2-3 pick the block
// size, bits 4-5 the speed; on both, bit 6 takes at-cost budgets one ulp
// below the cost and bit 7 takes them at the winner's cost instead of one
// worker's), grid side (1..10), the two lattice sides, the graph's jitter
// seed, the fleet size (0..23) — then 3 bytes per worker (two for the
// location, one for capacity 1..4, FreeAt in {0, 50, 100, 150},
// co-location with the previous worker and, on an aligned city, a snap onto
// the cell boundary below it), then 4 bytes per step of the script (at most
// 48): a probe (budget +Inf, 0, at a cost, or a sixteenth-of-the-span
// multiple) or an update of one worker's FreeAt and, optionally, location.
func decodeProbeCase(data []byte) (c probeCase, ok bool) {
	if len(data) < 6 {
		return c, false
	}
	flags := data[0]
	c.n = 1 + int(data[1])%10
	aligned := false
	blocks := 1           // lattice blocks per cell on an aligned city
	span := geo.NodeID(0) // the lattice's far corner: budgets scale with Cost(0, span)
	if flags&1 != 0 {
		w, h := 3+int(data[2])%8, 3+int(data[3])%8
		g := probeGraph(w, h, int64(data[4]), flags&4 != 0, flags&8 != 0, flags&16 != 0)
		if flags&2 != 0 {
			g.EnableHierarchy()
		}
		c.net, span = g, geo.NodeID(w*h-1)
	} else {
		w, h := 1+int(data[2])%16, 1+int(data[3])%16
		if aligned = flags&2 != 0; aligned {
			blocks = 1 + int(data[2])%3
			w, h = 1+c.n*blocks, 1+c.n*(1+int(data[3])%3)
		}
		size := []float64{1, 0.1, 150, 3}[(flags>>2)&3]
		speed := []float64{10, 3, 8, 7}[(flags>>4)&3]
		c.net = roadnet.NewGridCity(w, h, size, speed)
		span = geo.NodeID(w*h - 1)
	}
	nodes := c.net.NumNodes()
	snap := func(v geo.NodeID) geo.NodeID {
		g := c.net.(*roadnet.GridCity)
		x, y := g.XY(v)
		return g.Node(x/blocks*blocks, y)
	}
	m := int(data[5]) % 24
	body := data[6:]
	if len(body) < 3*m {
		return c, false
	}
	for i := 0; i < m; i++ {
		b := body[3*i : 3*i+3]
		w := &order.Worker{
			ID:       i + 1,
			Loc:      geo.NodeID((int(b[0])<<8 | int(b[1])) % nodes),
			Capacity: 1 + int(b[2])%4,
			FreeAt:   float64((b[2]>>2)%4) * 50,
		}
		if b[2]&0x10 != 0 && i > 0 {
			w.Loc = c.workers[i-1].Loc
		}
		if b[2]&0x20 != 0 && aligned {
			w.Loc = snap(w.Loc)
		}
		c.workers = append(c.workers, w)
	}
	unit := c.net.Cost(0, span) / 16
	for s := body[3*m:]; len(s) >= 4 && len(c.ops) < 48; s = s[4:] {
		kind, a, b, d := s[0], s[1], s[2], s[3]
		if kind&3 == 3 {
			if m == 0 {
				continue
			}
			c.ops = append(c.ops, probeOp{
				update: true,
				worker: int(a) % m,
				freeAt: float64(b%4) * 50,
				move:   b&4 != 0,
				loc:    geo.NodeID((int(b>>4)<<8 | int(d)) % nodes),
			})
			continue
		}
		op := probeOp{
			node:    geo.NodeID((int(a)<<8 | int(b)) % nodes),
			now:     float64(d%4) * 50,
			minCap:  1 + int(d>>2)%4,
			atCostW: -1,
		}
		switch (kind >> 2) & 3 {
		case 0:
			op.budget = math.Inf(1)
		case 1:
			op.budget = 0
		case 2:
			op.ulpBelow = flags&0x40 != 0
			switch {
			case flags&0x80 != 0:
				op.atWinner = true
			case m == 0:
				op.budget = math.Inf(1)
			default:
				op.atCostW = int(d>>4) % m
			}
		case 3:
			op.budget = float64(kind>>4) * unit
		}
		c.ops = append(c.ops, op)
	}
	return c, true
}

// probeGraph is the graph arm's city: a w x h lattice of 150 m blocks at
// 8 m/s, each street's time jittered by up to 40 % (seeded). With none of the
// options it is roadnet.NewPerturbedGrid. oneWay makes each row's streets run
// one way, east on even rows and west on odd ones; stranded appends a node
// with no edge and one that can be left but never entered; free makes every
// seventh street cost nothing.
func probeGraph(w, h int, seed int64, oneWay, stranded, free bool) *roadnet.Graph {
	if !oneWay && !stranded && !free {
		return roadnet.NewPerturbedGrid(w, h, 150, 8, 0.4, seed)
	}
	rng := rand.New(rand.NewSource(seed))
	var b roadnet.GraphBuilder
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			b.AddNode(geo.Point{X: float64(x) * 150, Y: float64(y) * 150})
		}
	}
	streets := 0
	street := func(u, v geo.NodeID, twoWay bool) {
		streets++
		sec := 150.0 / 8 * (1 + (rng.Float64()*2-1)*0.4)
		if free && streets%7 == 0 {
			sec = 0
		}
		b.AddEdge(u, v, sec)
		if twoWay {
			b.AddEdge(v, u, sec)
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := geo.NodeID(y*w + x)
			if x+1 < w {
				if oneWay && y%2 == 1 {
					street(v+1, v, false)
				} else {
					street(v, v+1, !oneWay)
				}
			}
			if y+1 < h {
				street(v, v+geo.NodeID(w), true)
			}
		}
	}
	if stranded {
		b.AddNode(geo.Point{X: -150, Y: -150})
		exit := b.AddNode(geo.Point{X: -150, Y: 0})
		b.AddEdge(exit, 0, 12.5)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// runProbeCase replays the script against one index, holding every probe —
// the exported one and the recording one — to the oracle bit for bit, and
// the candidate record to the oracle's record and to the cap rule.
func runProbeCase(t *testing.T, c probeCase) {
	t.Helper()
	ix := New(c.net, c.n)
	wi := NewWorkerIndex(ix, c.net, c.workers)
	if err := watermarkErr(wi); err != nil {
		t.Fatalf("fresh index: %v", err)
	}
	var osc probeScratch
	var ocands, rcands []int32
	for step, op := range c.ops {
		if op.update {
			w := c.workers[op.worker]
			w.FreeAt = op.freeAt
			if op.move {
				w.Loc = op.loc
			}
			mustUpdate(t, wi, w)
			continue
		}
		budget := op.budget
		switch {
		case op.atWinner:
			_, budget = wi.oracleClosestIdleWithin(op.node, op.now, op.minCap, math.Inf(1), &osc, nil)
		case op.atCostW >= 0:
			budget = c.net.Cost(c.workers[op.atCostW].Loc, op.node)
		}
		if op.ulpBelow {
			budget = math.Nextafter(budget, math.Inf(-1))
		}
		ocands, rcands = ocands[:0], rcands[:0]
		ow, oc := wi.oracleClosestIdleWithin(op.node, op.now, op.minCap, budget, &osc, &ocands)
		gw, gc := wi.ClosestIdleWithin(op.node, op.now, op.minCap, budget)
		rw, rc := wi.closestIdleWithin(op.node, op.now, op.minCap, budget, &rcands)
		if gw != ow || math.Float64bits(gc) != math.Float64bits(oc) || rw != ow || math.Float64bits(rc) != math.Float64bits(oc) {
			t.Fatalf("step %d: probe(node %d, now %v, cap %d, budget %v): index (%v, %v), recording (%v, %v), oracle (%v, %v)",
				step, op.node, op.now, op.minCap, budget, gw, gc, rw, rc, ow, oc)
		}
		checkRecord(t, step, wi, op, budget, ow, rcands, ocands)
	}
}

// checkRecord holds a probe's candidate record to the oracle's — a subset
// that holds the winner — and to the cap rule: no recorded worker sits in a
// cell whose distance floor exceeds the cap of its ring, min(budget, best
// recorded cost of the earlier rings). The last is an effort contract: a
// probe that walks cells it could have skipped answers right and fails it.
func checkRecord(t *testing.T, step int, wi *WorkerIndex, op probeOp, budget float64, winner *order.Worker, rec, oracleRec []int32) {
	t.Helper()
	p := wi.net.Coord(op.node)
	center := wi.ix.CellOfPoint(p)
	ring := func(id int32) int { c := wi.cellOf[int(id)]; return wi.ix.cellDist(center, c) }
	found := winner == nil
	for _, id := range rec {
		if !slices.Contains(oracleRec, id) {
			t.Fatalf("step %d: recorded worker %d is not in the oracle's record %v", step, id, oracleRec)
		}
		found = found || int(id) == winner.ID
		limit := budget
		for _, v := range rec {
			if ring(v) < ring(id) {
				limit = math.Min(limit, wi.net.Cost(wi.workers[int(v)].Loc, op.node))
			}
		}
		cell := wi.cellOf[int(id)]
		if floor := wi.secPerM * wi.ix.cellGap(p, cell); floor > limit {
			t.Fatalf("step %d: recorded worker %d in cell %d (ring %d) whose floor %v exceeds the ring's cap %v",
				step, id, cell, ring(id), floor, limit)
		}
	}
	if !found {
		t.Fatalf("step %d: record %v misses the winner %d", step, rec, winner.ID)
	}
}

// FuzzClosestIdleWithin decodes bytes into a GridCity or a small jittered
// graph — answered by ALT or by its contraction hierarchy, whose budgeted
// searches prune the target's descent cone — a fleet and a script of probes
// and updates (decodeProbeCase), and holds the budgeted ring search to the
// square-scan oracle of
// oracle_test.go: same worker, same cost bits, with and without a candidate
// record, after every Update. The seed corpus under
// testdata/fuzz/FuzzClosestIdleWithin runs in plain `go test`.
func FuzzClosestIdleWithin(f *testing.F) {
	f.Add([]byte{0x06, 4, 1, 1, 0, 6, 0, 5, 0x01, 0, 40, 0x2d, 0, 90, 0x06, 1, 7, 0, 12, 0x00, 0, 3, 0x12, 0, 30, 0x00, 0, 0, 0x05, 0x02, 0, 0, 0, 0x05, 0x0c, 0, 0x50, 0x04})
	f.Add([]byte{0x01, 3, 5, 4, 9, 8, 0, 7, 0x01, 0, 20, 0x06, 0, 31, 0x11, 0, 2, 0x0b, 0, 50, 0x04, 0, 13, 0x19, 0, 44, 0x03, 0, 9, 0x0e, 0x00, 0, 5, 0x00, 0x08, 0, 33, 0x11, 0x03, 2, 0x04, 9, 0x00, 0, 7, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := decodeProbeCase(data); ok {
			runProbeCase(t, c)
		}
	})
}

// TestBoundedProbeMatchesLegacyOracle: on a graph network the probe costs
// each ring through roadnet.FillNearestWithin (bound-ordered searches under
// a shrinking budget); over roadnet.Reference, which offers no bound and no
// batched path, the same index prices every ring in full, pair by pair.
// Both must name the same worker at the same cost — for the ALT and the
// hierarchy arm on a 16x16 city and the hierarchy on a 40x40 one, fleets with
// co-located and busy workers, infinite budgets, budgets drawn across the
// city, and budgets at, one ulp below and half the true nearest cost, where
// the hierarchy's budget-pruned cones cut closest to the answer — and the
// probe's candidate record must stay a set of idle in-budget workers that
// contains the winner.
func TestBoundedProbeMatchesLegacyOracle(t *testing.T) {
	for _, arm := range []struct {
		side      int
		hierarchy bool
	}{{16, false}, {16, true}, {40, true}} {
		hierarchy := arm.hierarchy
		name := fmt.Sprintf("%dx%d hierarchy=%v", arm.side, arm.side, hierarchy)
		g := roadnet.NewPerturbedGrid(arm.side, arm.side, 150, 8, 0.4, 21)
		if hierarchy {
			g.EnableHierarchy()
		}
		ref := roadnet.Reference(g)
		ix := New(g, 8)
		rng := rand.New(rand.NewSource(77))
		pruned := 0
		var cands, full []int32
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
			wi, lwi := NewWorkerIndex(ix, g, workers), NewWorkerIndex(ix, ref, workers)
			for q := 0; q < 40; q++ {
				node := geo.NodeID(rng.Intn(g.NumNodes()))
				now := float64(rng.Intn(3)) * 50
				minCap := 1 + rng.Intn(4)
				maxCost := math.Inf(1)
				switch rng.Intn(6) {
				case 1, 2:
					maxCost = float64(rng.Intn(500))
				case 3, 4, 5:
					// Relative to the true nearest cost: at it, one ulp
					// below it, half of it.
					_, nearest := lwi.closestIdleWithin(node, now, minCap, math.Inf(1), nil)
					maxCost = []float64{nearest, math.Nextafter(nearest, math.Inf(-1)), nearest / 2}[rng.Intn(3)]
				}
				cands, full = cands[:0], full[:0]
				lw, lc := lwi.closestIdleWithin(node, now, minCap, maxCost, &full)
				w, c := wi.closestIdleWithin(node, now, minCap, maxCost, &cands)
				if w != lw || math.Float64bits(c) != math.Float64bits(lc) {
					t.Fatalf("%s trial %d query %d: bounded (%v, %v) != reference (%v, %v)",
						name, trial, q, w, c, lw, lc)
				}
				if iw, ic := wi.ClosestIdleWithin(node, now, minCap, maxCost); iw != w || ic != c {
					t.Fatalf("%s: exported probe (%v, %v) != recording probe (%v, %v)", name, iw, ic, w, c)
				}
				// The reference record is every idle in-budget worker of the
				// scanned rings; the bounded one is a subset holding the winner.
				found := w == nil
				for _, id := range cands {
					if !slices.Contains(full, id) {
						t.Fatalf("%s: recorded candidate %d is not an in-budget idle worker of the scanned rings %v",
							name, id, full)
					}
					found = found || int(id) == w.ID
				}
				if !found {
					t.Fatalf("%s: candidate record %v misses the winner %d", name, cands, w.ID)
				}
				if len(cands) < len(full) {
					pruned++
				}
			}
		}
		if pruned == 0 {
			t.Fatalf("%s: no probe ever left an in-budget worker unsearched; the bounded path did not run", name)
		}
	}
}

// TestRingSearchNotBudgetMonotone pins why a cross-tick probe memo cannot
// reuse an answer (w, a) at a smaller budget b' merely because a <= b'. At
// budget b the first ring with an in-budget worker is F = 0 (cost c_F = 18)
// and the answer comes from ring F+1 (cost a = 17 < c_F). At b' in
// [a, c_F) ring F has no in-budget worker any more, so the scan opens at
// ring F+1 and goes on to ring F+2, whose worker costs 11: a different,
// cheaper answer. The answer at b stands at b' only when c_F <= b'.
func TestRingSearchNotBudgetMonotone(t *testing.T) {
	net := roadnet.NewGridCity(41, 41, 1, 1) // 1 m blocks at 1 m/s: cost = L1 blocks
	ix := New(net, 4)                        // 10-block cells
	probe := net.Node(20, 20)
	ringF := &order.Worker{ID: 1, Loc: net.Node(29, 29), Capacity: 4}  // own cell, cost 18
	ringF1 := &order.Worker{ID: 2, Loc: net.Node(30, 27), Capacity: 4} // ring 1, cost 17
	ringF2 := &order.Worker{ID: 3, Loc: net.Node(9, 20), Capacity: 4}  // ring 2, cost 11
	center := ix.CellOf(probe)
	for w, d := range map[*order.Worker]int{ringF: 0, ringF1: 1, ringF2: 2} {
		if got := ix.cellDist(center, ix.CellOf(w.Loc)); got != d {
			t.Fatalf("fixture: worker %d in ring %d, want %d", w.ID, got, d)
		}
	}
	wi := NewWorkerIndex(ix, net, []*order.Worker{ringF, ringF1, ringF2})
	var osc probeScratch
	for _, tc := range []struct {
		budget float64
		want   *order.Worker
		cost   float64
	}{
		{100, ringF1, 17}, // b: F = 0 opens, F+1 answers
		{18, ringF1, 17},  // b' = c_F: F still opens, the answer stands
		{17.5, ringF2, 11},
		{17, ringF2, 11}, // b' = a: still a different answer
		{11, ringF2, 11},
		{10, nil, math.Inf(1)},
	} {
		w, c := wi.ClosestIdleWithin(probe, 0, 1, tc.budget)
		ow, oc := wi.oracleClosestIdleWithin(probe, 0, 1, tc.budget, &osc, nil)
		if w != tc.want || c != tc.cost || ow != w || oc != c {
			t.Fatalf("budget %v: got (%v, %v), oracle (%v, %v), want (%v, %v)", tc.budget, w, c, ow, oc, tc.want, tc.cost)
		}
	}
}
