package pool

import (
	"math"
	"testing"

	"watter/internal/geo"
	"watter/internal/gridindex"
	"watter/internal/order"
	"watter/internal/roadnet"
	"watter/internal/route"
)

// Pool operations a FuzzPoolOps script is made of: op byte, argument byte.
const (
	fuzzInsert = iota
	fuzzInsertPrewarmed
	fuzzRemove
	fuzzRemoveGroup
	fuzzExpire
	fuzzAdvance
	fuzzNumOps
)

// fuzzMaxOps bounds one script, so an input costs at most a few
// milliseconds.
const fuzzMaxOps = 96

// fuzzSide is the width and height, in nodes, of both fuzz networks: small
// enough that most orders have neighbors, large enough for real detours.
const fuzzSide = 8

var fuzzNets = [2]roadnet.Network{
	roadnet.NewGridCity(fuzzSide, fuzzSide, 100, 10),
	roadnet.NewPerturbedGrid(fuzzSide, fuzzSide, 150, 8, 0.3, 3), // ALT-backed
}

// serialExec runs prewarm tasks on the calling goroutine, last first.
type serialExec struct{}

func (serialExec) Run(tasks []func()) {
	for i := len(tasks) - 1; i >= 0; i-- {
		tasks[i]()
	}
}

// FuzzPoolOps drives a pool and its DisablePlanCache twin through one
// operation script decoded from bytes — the first byte picks the network
// (a closed-form GridCity or an ALT Graph with lower bounds) and the cell
// prefilter, then op/argument pairs Insert (plain or after PrewarmPairs),
// Remove, RemoveGroup, ExpireEdges or advance the clock — and checks after
// every step that both pools pool the same orders with the same edges and
// the same best groups and τg, bit for bit, that ExpireEdges returned the
// same IDs, and that the slot invariants hold (checkSlots). Each (slot,
// generation) pair must name one order for the whole run: a slot reused
// without a new generation would let the leg store's within-leg memo serve
// the previous order's leg. The named seeds in testdata/fuzz run under
// plain `go test`.
func FuzzPoolOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		net := fuzzNets[script[0]%2]
		radius := int(script[0]/2)%4 - 1 // -1 (no prefilter) .. 2
		script = script[1:]
		if len(script) > 2*fuzzMaxOps {
			script = script[:2*fuzzMaxOps]
		}
		opt := DefaultOptions()
		opt.CandidateRadius = radius
		cached := New(route.NewPlanner(net), gridindex.New(net, 4), opt)
		opt.DisablePlanCache = true
		plain := New(route.NewPlanner(net), gridindex.New(net, 4), opt)
		owner := map[route.Slot]int{} // every (slot, generation) the cached pool used, and its order

		now, nextID := 0.0, 1
		for len(script) >= 2 {
			op, arg := int(script[0])%fuzzNumOps, script[1]
			script = script[2:]
			switch op {
			case fuzzInsert, fuzzInsertPrewarmed:
				o := fuzzOrder(net, nextID, arg, now)
				nextID++
				if op == fuzzInsertPrewarmed {
					cached.PrewarmPairs(o, now, serialExec{})
				}
				if a, b := cached.Insert(o, now), plain.Insert(o, now); a != b {
					t.Fatalf("insert %d: cached added %d edges, plain %d", o.ID, a, b)
				}
			case fuzzRemove, fuzzRemoveGroup:
				ids := cached.OrderIDs()
				if len(ids) == 0 {
					continue
				}
				id := ids[int(arg)%len(ids)]
				gc, _, okc := cached.BestGroup(id)
				gp, _, _ := plain.BestGroup(id)
				if op == fuzzRemoveGroup && okc {
					cached.RemoveGroup(gc, now)
					plain.RemoveGroup(gp, now)
				} else {
					cached.Remove(id, now)
					plain.Remove(id, now)
				}
			case fuzzExpire:
				ec, ep := cached.ExpireEdges(now), plain.ExpireEdges(now)
				if !slicesEqual(ec, ep) {
					t.Fatalf("at %v: cached expired %v, plain %v", now, ec, ep)
				}
				for _, id := range ec {
					cached.Remove(id, now)
					plain.Remove(id, now)
				}
			case fuzzAdvance:
				now += float64(arg % 64)
			}
			comparePools(t, cached, plain, now)
			checkSlots(t, cached, owner)
			checkSlots(t, plain, nil)
		}
	})
}

// fuzzOrder decodes one order released at now from an argument byte: the
// pickup and dropoff nodes, the deadline slack (1.2x to 2.7x the direct
// trip) and one or two riders.
func fuzzOrder(net roadnet.Network, id int, arg byte, now float64) *order.Order {
	n := fuzzSide * fuzzSide
	pu := geo.NodeID((int(arg)*7 + id*13) % n)
	do := geo.NodeID((int(arg)*29 + id*5 + 17) % n)
	if do == pu {
		do = (do + 1) % geo.NodeID(n)
	}
	direct := net.Cost(pu, do)
	return &order.Order{
		ID: id, Pickup: pu, Dropoff: do, Riders: 1 + int(arg>>7),
		Release: now, Deadline: now + (1.2+float64(arg%4)/2)*direct,
		WaitLimit: 0.8 * direct, DirectCost: direct,
	}
}

func slicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// comparePools fails unless both pools hold the same orders, the same
// edges with the same τe, and the same best groups — members, τg, plan
// cost, stops and arrivals, bit for bit.
func comparePools(t *testing.T, cached, plain *Pool, now float64) {
	t.Helper()
	ids := cached.OrderIDs()
	if !slicesEqual(ids, plain.OrderIDs()) {
		t.Fatalf("at %v: pooled orders diverged: %v vs %v", now, ids, plain.OrderIDs())
	}
	for _, id := range ids {
		ac := cached.nodes[cached.mustSlot(t, id)].adj
		ap := plain.nodes[plain.mustSlot(t, id)].adj
		if len(ac) != len(ap) {
			t.Fatalf("at %v: order %d has %d edges cached, %d plain", now, id, len(ac), len(ap))
		}
		for i := range ac {
			if ac[i].id != ap[i].id || math.Float64bits(ac[i].expiry) != math.Float64bits(ap[i].expiry) {
				t.Fatalf("at %v: order %d edge %d: cached %d@%v, plain %d@%v", now, id, i, ac[i].id, ac[i].expiry, ap[i].id, ap[i].expiry)
			}
		}
		gc, ec, okc := cached.BestGroup(id)
		gp, ep, okp := plain.BestGroup(id)
		if okc != okp || math.Float64bits(ec) != math.Float64bits(ep) {
			t.Fatalf("at %v: order %d best group: cached ok=%v τg=%v, plain ok=%v τg=%v", now, id, okc, ec, okp, ep)
		}
		if !okc {
			continue
		}
		if gc.Key() != gp.Key() || math.Float64bits(gc.Plan.Cost) != math.Float64bits(gp.Plan.Cost) || len(gc.Plan.Stops) != len(gp.Plan.Stops) {
			t.Fatalf("at %v: order %d best group: cached %s cost %v, plain %s cost %v", now, id, gc.Key(), gc.Plan.Cost, gp.Key(), gp.Plan.Cost)
		}
		for i := range gc.Plan.Stops {
			if gc.Plan.Stops[i] != gp.Plan.Stops[i] || math.Float64bits(gc.Plan.Arrive[i]) != math.Float64bits(gp.Plan.Arrive[i]) {
				t.Fatalf("at %v: order %d best group plans diverge at stop %d", now, id, i)
			}
		}
	}
}

// checkSlots fails unless the pool's slot layout is consistent:
//
//   - the live list ascends by ID, and live and free slots partition the
//     slot array; a free slot holds no order, edge, plan or prewarm result,
//     and nothing reaches it — no live list, cell bucket or adjacency entry;
//   - adjacency is ID-sorted and symmetric: the neighbor's entry has the
//     same expiry and the same leg block, every edge has its own block when
//     the cache is on and none when it is off, and no other block is live;
//   - every cached entry is listed on each member's slot, and every listed
//     entry that is not evicted is the cached one for its key;
//   - with owner non-nil, no (slot, generation) pair ever named two orders.
func checkSlots(t *testing.T, p *Pool, owner map[route.Slot]int) {
	t.Helper()
	state := make([]byte, len(p.nodes)) // 1 live, 2 free
	for i, r := range p.live {
		if i > 0 && p.live[i-1].id >= r.id {
			t.Fatalf("live list out of order at %d: %v", i, p.live)
		}
		n := &p.nodes[r.slot]
		if n.o == nil || n.o.ID != r.id || state[r.slot] != 0 {
			t.Fatalf("live entry %+v names a free or doubly listed slot", r)
		}
		state[r.slot] = 1
		if owner != nil {
			key := p.slotRef(r.slot)
			if prev, seen := owner[key]; seen && prev != r.id {
				t.Fatalf("slot %d generation %d names order %d, and named order %d before", key.Index, key.Gen, r.id, prev)
			}
			owner[key] = r.id
		}
	}
	for _, s := range p.free {
		n := &p.nodes[s]
		if state[s] != 0 || n.o != nil || len(n.adj) != 0 || len(n.plans) != 0 || n.prewarm.ent != nil {
			t.Fatalf("free slot %d is live, doubly freed or holds state", s)
		}
		state[s] = 2
	}
	for s, st := range state {
		if st == 0 {
			t.Fatalf("slot %d is neither live nor free", s)
		}
	}
	inCells := 0
	for c, bucket := range p.cells {
		for _, r := range bucket {
			if state[r.slot] != 1 || p.nodes[r.slot].o.ID != r.id || p.nodes[r.slot].cell != c {
				t.Fatalf("cell %d lists %+v, which is not a live order of the cell", c, r)
			}
		}
		inCells += len(bucket)
	}
	if inCells != len(p.live) {
		t.Fatalf("cells list %d orders, %d are pooled", inCells, len(p.live))
	}
	blocks := map[*route.LegBlock]bool{}
	for _, r := range p.live {
		adj := p.nodes[r.slot].adj
		for i, e := range adj {
			if i > 0 && adj[i-1].id >= e.id {
				t.Fatalf("adjacency of %d out of order: %d then %d", r.id, adj[i-1].id, e.id)
			}
			if state[e.slot] != 1 || p.nodes[e.slot].o.ID != e.id || e.id == r.id {
				t.Fatalf("edge %d->%d reaches a free slot, another order or itself", r.id, e.id)
			}
			back := p.nodes[e.slot].adj
			j, ok := searchEdge(back, r.id)
			if !ok || math.Float64bits(back[j].expiry) != math.Float64bits(e.expiry) || back[j].legs != e.legs {
				t.Fatalf("edge %d->%d has no matching reverse entry", r.id, e.id)
			}
			if (e.legs == nil) != (p.legs == nil) {
				t.Fatalf("edge %d->%d: leg block %p with cache on=%v", r.id, e.id, e.legs, p.legs != nil)
			}
			if e.legs != nil && r.id < e.id {
				if blocks[e.legs] {
					t.Fatalf("edge %d->%d shares its leg block with another edge", r.id, e.id)
				}
				blocks[e.legs] = true
			}
		}
		if n := &p.nodes[r.slot]; n.prewarm.ent != nil {
			t.Fatalf("order %d holds a prewarmed pair after its insert", r.id)
		}
	}
	if p.legBlocks() != len(blocks) {
		t.Fatalf("%d leg blocks live, %d held by edges", p.legBlocks(), len(blocks))
	}
	if p.cache == nil {
		return
	}
	listed := 0
	for _, r := range p.live {
		for _, ent := range p.nodes[r.slot].plans {
			if ent.evicted {
				continue
			}
			if p.cache.entries[memberKey(ent.orders())] != ent || !groupContains(&order.Group{Orders: ent.orders()}, r.id) {
				t.Fatalf("order %d lists an entry the cache does not hold for it", r.id)
			}
			listed++
		}
	}
	want := 0
	for _, ent := range p.cache.entries {
		if ent.evicted {
			t.Fatalf("cache holds an evicted entry")
		}
		want += ent.n
	}
	if listed != want {
		t.Fatalf("slots list %d entry memberships, the cache holds %d", listed, want)
	}
}
