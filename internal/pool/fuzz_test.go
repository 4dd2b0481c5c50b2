package pool

import (
	"math"
	"slices"
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
// (a closed-form GridCity with exact 10 s blocks, where the prefix rule
// runs, or an ALT Graph with lower bounds) and the cell prefilter, then
// op/argument pairs Insert (plain or after PrewarmPairs), Remove,
// RemoveGroup, ExpireEdges or advance the clock — and checks after every
// step that both pools pool the same orders with the same edges and the
// same best groups and τg, bit for bit, that ExpireEdges returned the same
// IDs, that the slot invariants hold (checkSlots) and that the cached keys
// are sound (checkKeys). Each (slot, generation) pair must name one order
// for the whole run: a slot reused without a new generation would let the
// leg store's within-leg memo serve the previous order's leg. The named
// seeds in testdata/fuzz run under plain `go test`.
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
		var keys []planKey            // the keys the cached pool held after the last step

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
			keys = checkKeys(t, cached, now, keys)
		}
	})
}

// checkKeys fails unless every negative key the pool caches is infeasible
// for a fresh DP at now — the prefix rule records nothing negative that the
// DP would not — and every key of before whose members are all still pooled
// is cached still: a key leaves only with a member. It returns the keys the
// pool caches now.
func checkKeys(t *testing.T, p *Pool, now float64, before []planKey) []planKey {
	t.Helper()
	for _, key := range before {
		pooled := true
		for _, id := range key.ids[:key.n] {
			pooled = pooled && p.Contains(id)
		}
		if _, ok := p.cache.entries[key]; pooled && !ok {
			t.Fatalf("at %v: key %v left the cache while its members are pooled", now, key)
		}
	}
	var keys []planKey
	var members [route.MaxGroupSize]*order.Order
	var svc [route.MaxGroupSize]float64
	for key, ent := range p.cache.entries {
		keys = append(keys, key)
		if ent.feasible {
			continue
		}
		for i, id := range key.ids[:key.n] {
			members[i] = p.Order(id)
		}
		if _, _, ok := p.planner.PlanGroupCost(members[:key.n], now, p.opt.Capacity, nil, svc[:]); ok {
			t.Fatalf("at %v: key %v is cached negative, and a fresh DP finds a route", now, key)
		}
	}
	return keys
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
//   - every cached key holds one live eviction record, listed on each
//     member's slot, that names the key's entry; every live ref a slot
//     lists names a cached key the order is a member of; a record is live
//     or free, never both; every negative key maps to the cache's sentinel,
//     which nothing wrote;
//   - no recycled entry is reachable: a spare entry is listed once, holds
//     no group, and is neither the sentinel, a map value, a live record's
//     entry nor the probe;
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
	c := p.cache
	if c.negative != (planEntry{}) {
		t.Fatalf("the negative sentinel was written: %+v", c.negative)
	}
	free := map[int32]bool{}
	for _, i := range c.free {
		if free[i] {
			t.Fatalf("eviction record %d is freed twice", i)
		}
		free[i] = true
	}
	listed := map[int32]int{} // live record -> refs listed on member slots
	for _, r := range p.live {
		for _, ref := range p.nodes[r.slot].plans {
			rec := c.recs[ref.rec]
			if rec.gen != ref.gen {
				continue
			}
			if free[ref.rec] {
				t.Fatalf("order %d lists a live ref to the free record %d", r.id, ref.rec)
			}
			ent, ok := c.entries[rec.key]
			if !ok || !slices.Contains(rec.key.ids[:rec.key.n], r.id) {
				t.Fatalf("order %d lists a record of key %v the cache does not hold for it", r.id, rec.key)
			}
			if ent.feasible && memberKey(ent.orders()) != rec.key {
				t.Fatalf("key %v maps to the entry of %v", rec.key, memberKey(ent.orders()))
			}
			if !ent.feasible && ent.n == 0 && ent != &c.negative {
				t.Fatalf("key %v maps to a memberless entry that is not the sentinel", rec.key)
			}
			if rec.ent != ent {
				t.Fatalf("the record of key %v names another entry than the cache maps it to", rec.key)
			}
			listed[ref.rec]++
		}
	}
	spare := map[*planEntry]bool{}
	for _, ent := range c.spare {
		if spare[ent] || ent.group != nil || ent == &c.negative || ent == p.probe {
			t.Fatalf("spare entry %p is listed twice, holds a group, or is the sentinel or the probe", ent)
		}
		spare[ent] = true
	}
	for key, ent := range c.entries {
		if spare[ent] {
			t.Fatalf("key %v maps to a spare entry", key)
		}
	}
	for i := range c.recs {
		if ent := c.recs[i].ent; ent != nil && (spare[ent] || free[int32(i)]) {
			t.Fatalf("record %d is free but names an entry, or names a spare one", i)
		}
	}
	for i, n := range listed {
		if key := c.recs[i].key; n != key.n {
			t.Fatalf("key %v is listed on %d member slots", key, n)
		}
	}
	if len(listed) != len(c.entries) || len(listed)+len(c.free) != len(c.recs) {
		t.Fatalf("%d keys cached, %d records listed, %d free of %d", len(c.entries), len(listed), len(c.free), len(c.recs))
	}
}
