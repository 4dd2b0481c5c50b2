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
// (a closed-form GridCity with exact 10 s blocks, where the subset rule
// runs, or an ALT Graph with lower bounds), the cell prefilter and, with
// its high bit, capacity 6 instead of 4, then
// op/argument pairs Insert (plain or after PrewarmPairs), Remove,
// RemoveGroup, ExpireEdges or advance the clock — and checks after every
// step that both pools pool the same orders with the same edges and the
// same best groups and τg, bit for bit, that ExpireEdges returned the same
// IDs, that the slot invariants hold (checkSlots), that the cached keys
// are sound (checkKeys) and that every best group is planned as a fresh
// planner plans its members at the clock the harness first saw it
// (checkPlans), an oracle neither twin shares. Each (slot, generation) pair
// must name one order for the whole run: a slot reused without a new
// generation would let the leg store's within-leg memo serve the previous
// order's leg. The named seeds in testdata/fuzz run under plain `go test`;
// in graph-budget-owner and graph-budget-renewal (where a later tick renews
// a 3-clique over the pair) a pair's cross leg lies beyond one member's
// budget and within its owner's, so a leg block that budgets it by the
// wrong member fails them.
func FuzzPoolOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		head := script[0]
		net := fuzzNets[head%2]
		radius := int(head/2)%4 - 1 // -1 (no prefilter) .. 2
		script = script[1:]
		if len(script) > 2*fuzzMaxOps {
			script = script[:2*fuzzMaxOps]
		}
		opt := DefaultOptions()
		opt.CandidateRadius = radius
		if head >= 0x80 {
			// The high bit lifts capacity to the planner's largest group, so
			// sets the subset rule decides below the largest size occur.
			opt.Capacity, opt.MaxGroupSize = route.MaxGroupSize, route.MaxGroupSize
		}
		cached := New(route.NewPlanner(net), gridindex.New(net, 4), opt)
		opt.DisablePlanCache = true
		plain := New(route.NewPlanner(net), gridindex.New(net, 4), opt)
		owner := map[route.Slot]int{} // every (slot, generation) the cached pool used, and its order
		var keys map[planKey]keyState // the keys the cached pool held after the last step
		var seen map[int]seenBest     // each order's best group, as first seen
		fresh := route.NewPlanner(net)

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
			seen = checkPlans(t, cached, fresh, now, seen)
		}
	})
}

// seenBest is an order's best group as the harness first saw it: its
// members, τg and the clock of that step.
type seenBest struct {
	key    planKey
	expiry float64
	at     float64
}

// checkPlans fails unless every pooled order's best group, as BestGroup
// plans it, is the route fresh.PlanGroup finds for its members at the
// clock where the harness first saw that best — the same members and τg
// since — bit for bit: stops, arrivals and cost, with τg recomputed from
// that route, the view's start node as its first stop and the view's
// average extra time at now. A refresh adopts a best at the clock of the
// step it runs in, and the same members with the same τg name one span of
// the winning entry, in which every clock plans the same route
// (plancache.go, invariant 1). It returns the bests seen, by order.
func checkPlans(t *testing.T, p *Pool, fresh *route.Planner, now float64, seen map[int]seenBest) map[int]seenBest {
	t.Helper()
	next := make(map[int]seenBest, p.Len())
	for _, id := range p.OrderIDs() {
		v, ok := p.Best(id)
		g, expiry, planned := p.BestGroup(id)
		if ok != planned {
			t.Fatalf("at %v: order %d has a best group %v, BestGroup plans one %v", now, id, ok, planned)
		}
		if !ok {
			continue
		}
		key := memberKey(v.Members())
		s, was := seen[id]
		if !was || s.key != key || math.Float64bits(s.expiry) != math.Float64bits(v.Expiry()) {
			s = seenBest{key: key, expiry: v.Expiry(), at: now}
		}
		next[id] = s
		want, wok := fresh.PlanGroup(v.Members(), s.at, p.opt.Capacity)
		if !wok {
			t.Fatalf("at %v: order %d's best %v, first seen at %v, has no route there", now, id, key, s.at)
		}
		if math.Float64bits(g.Plan.Cost) != math.Float64bits(want.Cost) || !slices.Equal(g.Plan.Stops, want.Stops) || !slices.Equal(g.Plan.Arrive, want.Arrive) {
			t.Fatalf("at %v: order %d's best %v is planned %+v, a fresh plan at %v is %+v", now, id, key, g.Plan, s.at, want)
		}
		tg := math.Inf(1)
		for _, o := range g.Orders {
			st, _ := want.ServiceTime(o.ID)
			tg = min(tg, o.Deadline-st)
		}
		if math.Float64bits(tg) != math.Float64bits(expiry) || want.Stops[0].Node != v.Start() {
			t.Fatalf("at %v: order %d's best %v: τg %v, start %v; the fresh route gives %v, %v", now, id, key, expiry, v.Start(), tg, want.Stops[0].Node)
		}
		if got, want := v.AvgExtraTime(now), g.AvgExtraTime(now); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("at %v: order %d's best %v: view average extra %v, planned %v", now, id, key, got, want)
		}
	}
	return next
}

// keyState is a cached key's verdict as a step left it.
type keyState struct {
	feasible bool
	expiry   float64
}

// checkKeys fails unless the keys the pool caches at now are sound against
// the snapshot before of the previous step's keys:
//
//   - every negative key is infeasible for a fresh DP at now: the subset
//     rule records nothing negative that the DP would not;
//   - a key of before whose members are all still pooled is cached still,
//     unless it is a largest-size set that was positive and a cached
//     (k−1)-subset of it is negative now (a renewal the subset decided,
//     which evicts the key);
//   - on an exact network, no largest-size key was cached or replanned in
//     this step while one of its (k−1)-subsets was cached negative at the
//     start of it: the subset decides such a set, which is never indexed.
//
// It returns the keys the pool caches now.
func checkKeys(t *testing.T, p *Pool, now float64, before map[planKey]keyState) map[planKey]keyState {
	t.Helper()
	c := p.cache
	negativeSubset := func(key planKey, negative func(planKey) bool) bool {
		for i := range key.ids[:key.n] {
			if negative(key.without(i)) {
				return true
			}
		}
		return false
	}
	negativeNow := func(key planKey) bool { ent := c.cached(key); return ent != nil && !ent.feasible }
	negativeBefore := func(key planKey) bool { s, ok := before[key]; return ok && !s.feasible }
	largest := p.opt.MaxGroupSize
	for key, was := range before {
		pooled := true
		for _, id := range key.ids[:key.n] {
			pooled = pooled && p.Contains(id)
		}
		if pooled && c.cached(key) == nil && (key.n != largest || !was.feasible || !negativeSubset(key, negativeNow)) {
			t.Fatalf("at %v: key %v left the cache while its members are pooled", now, key)
		}
	}
	keys := make(map[planKey]keyState, c.keys())
	var members [route.MaxGroupSize]*order.Order
	var svc [route.MaxGroupSize]float64
	for _, rec := range c.recs {
		if rec.ent == nil {
			continue
		}
		key, ent := rec.key, rec.ent
		keys[key] = keyState{ent.feasible, ent.expiry}
		was, ok := before[key]
		changed := !ok || was.feasible != ent.feasible || math.Float64bits(was.expiry) != math.Float64bits(ent.expiry)
		if p.exact && key.n == largest && changed && negativeSubset(key, negativeBefore) {
			t.Fatalf("at %v: key %v was cached in a step that began with a negative subset of it", now, key)
		}
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
//   - the index holds exactly the live records: each names a distinct live
//     record, a lookup of each live record's key finds it, and a record is
//     live or free, never both;
//   - every live record is listed on each member's slot, and every live ref
//     a slot lists names a live (indexed) record whose key the order is a
//     member of; a record names its key's entry, and every memberless
//     negative entry is the cache's sentinel, which nothing wrote;
//   - no recycled entry is reachable: a spare entry is listed once and is
//     neither the sentinel, a live record's entry nor the probe;
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
		if free[i] || c.recs[i].ent != nil {
			t.Fatalf("record %d is freed twice or freed while live", i)
		}
		free[i] = true
	}
	indexed := map[int32]bool{}
	for _, v := range c.index {
		if v == 0 {
			continue
		}
		if r := v - 1; indexed[r] || c.recs[r].ent == nil {
			t.Fatalf("the index names record %d twice or while it is free", r)
		}
		indexed[v-1] = true
	}
	if len(c.index)&(len(c.index)-1) != 0 || 2*c.keys() > len(c.index) || len(indexed) != c.keys() {
		t.Fatalf("index of %d positions holds %d keys and names %d", len(c.index), c.keys(), len(indexed))
	}
	for i, rec := range c.recs {
		if rec.ent == nil {
			if !free[int32(i)] {
				t.Fatalf("record %d is neither live nor free", i)
			}
			continue
		}
		if r, _ := c.find(&rec.key); r != int32(i) || rec.hash != rec.key.hash() {
			t.Fatalf("record %d of key %v is not found through the index", i, rec.key)
		}
		if rec.ent.feasible && memberKey(rec.ent.orders()) != rec.key {
			t.Fatalf("key %v maps to the entry of %v", rec.key, memberKey(rec.ent.orders()))
		}
		if !rec.ent.feasible && rec.ent.n == 0 && rec.ent != &c.negative {
			t.Fatalf("key %v maps to a memberless entry that is not the sentinel", rec.key)
		}
	}
	listed := map[int32]int{} // live record -> refs listed on member slots
	for _, r := range p.live {
		for _, ref := range p.nodes[r.slot].plans {
			rec := c.recs[ref.rec]
			if rec.gen != ref.gen {
				continue
			}
			if rec.ent == nil || free[ref.rec] {
				t.Fatalf("order %d lists a live ref to the free record %d", r.id, ref.rec)
			}
			if !slices.Contains(rec.key.ids[:rec.key.n], r.id) {
				t.Fatalf("order %d lists a record of key %v it is not a member of", r.id, rec.key)
			}
			listed[ref.rec]++
		}
	}
	for r := range indexed {
		if key := c.recs[r].key; listed[r] != key.n {
			t.Fatalf("key %v is listed on %d of its %d member slots", key, listed[r], key.n)
		}
	}
	if len(listed) != len(indexed) {
		t.Fatalf("%d records listed on slots, %d indexed", len(listed), len(indexed))
	}
	spare := map[*planEntry]bool{}
	for _, ent := range c.spare {
		if spare[ent] || ent == &c.negative || ent == p.probe {
			t.Fatalf("spare entry %p is listed twice, or is the sentinel or the probe", ent)
		}
		spare[ent] = true
	}
	for _, rec := range c.recs {
		if rec.ent != nil && spare[rec.ent] {
			t.Fatalf("key %v maps to a spare entry", rec.key)
		}
	}
}
