package mdp

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"slices"
	"testing"

	"watter/internal/core"
	"watter/internal/gridindex"
	"watter/internal/nn"
	"watter/internal/order"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/route"
	"watter/internal/strategy"
)

// liveFixture is a pool, a fleet and a value network over one small city:
// what a threshold source reads at run time.
type liveFixture struct {
	net   *roadnet.GridCity
	feat  *Featurizer
	pool  *pool.Pool
	fleet []*order.Worker
	wi    *gridindex.WorkerIndex
	mlp   *nn.MLP
}

func newLiveFixture(workers int) *liveFixture {
	net := roadnet.NewGridCity(20, 20, 100, 10)
	ix := gridindex.New(net, 5)
	f := &liveFixture{net: net, feat: NewFeaturizer(ix, 3600)}
	f.pool = pool.New(route.NewPlanner(net), ix, pool.DefaultOptions())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < workers; i++ {
		f.fleet = append(f.fleet, &order.Worker{ID: i, Loc: net.Node(rng.Intn(20), rng.Intn(20)), Capacity: 4})
	}
	f.wi = gridindex.NewWorkerIndex(ix, net, f.fleet)
	f.mlp = nn.New([]int{f.feat.Dim(), 16, 8, 1}, 3)
	return f
}

func (f *liveFixture) order(id int, rng *rand.Rand, release float64) *order.Order {
	pu := f.net.Node(rng.Intn(20), rng.Intn(20))
	do := f.net.Node(rng.Intn(20), rng.Intn(20))
	for do == pu {
		do = f.net.Node(rng.Intn(20), rng.Intn(20))
	}
	direct := f.net.Cost(pu, do)
	return &order.Order{
		ID: id, Pickup: pu, Dropoff: do, Riders: 1, Release: release,
		Deadline: release + 2*direct + 600, WaitLimit: 0.8 * direct, DirectCost: direct,
	}
}

// source returns a threshold source over the fixture: wired as exp wires
// it — the change signal, and the pool and fleet filled into histograms the
// wiring owns — or bare, the struct literal outside callers write, which
// re-reads the allocating forms on every call.
func (f *liveFixture) source(wired bool) *ValueThresholdSource {
	src := &ValueThresholdSource{
		Net: f.mlp, Feat: f.feat,
		Demand: func() (gridindex.Distribution, gridindex.Distribution) { return demand(f.pool, f.feat.Index) },
		Supply: f.wi.SupplyDistribution,
	}
	if wired {
		ix := f.feat.Index
		pu, do, sw := ix.NewDistribution(), ix.NewDistribution(), ix.NewDistribution()
		src.Demand = func() (gridindex.Distribution, gridindex.Distribution) {
			f.pool.FillDemand(pu, do)
			return pu, do
		}
		src.Supply = func(now float64) gridindex.Distribution {
			f.wi.FillSupply(sw, now)
			return sw
		}
		src.Watch(func() (uint64, uint64) { return f.pool.DemandGeneration(), f.wi.Generation() })
	}
	return src
}

// reference is the state the allocating path builds from histograms fetched
// this instant — what Threshold computed before the snapshot existed.
func (f *liveFixture) reference(o *order.Order, now float64) []float64 {
	pu, do := demand(f.pool, f.feat.Index)
	return f.feat.Features(o, now, pu, do, f.wi.SupplyDistribution(now))
}

// demand fills freshly allocated histograms over ix, the index p was
// built on, with p's current demand.
func demand(p *pool.Pool, ix *gridindex.Index) (pickup, dropoff gridindex.Distribution) {
	pickup, dropoff = ix.NewDistribution(), ix.NewDistribution()
	p.FillDemand(pickup, dropoff)
	return pickup, dropoff
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkThreshold asserts that the wired source's next range holds, and its
// next threshold and the network input it is computed from are, what a
// source that has never cached anything produces at the same instant. The
// range is asked first, as the strategy asks, so a stale snapshot, suffix
// sum or estimate would show in it.
func (f *liveFixture) checkThreshold(t *testing.T, what string, src *ValueThresholdSource, o *order.Order, now float64) {
	t.Helper()
	lo, hi := src.ThresholdRange(o, now)
	got := src.Threshold(o, now)
	want := f.source(false).Threshold(o, now)
	if !sameBits(got, want) {
		t.Fatalf("%s: θ = %v, a fresh source gives %v", what, got, want)
	}
	if src.changed != nil && !(lo <= want && want <= hi) {
		t.Fatalf("%s: θ = %v outside the claimed [%v, %v]", what, want, lo, hi)
	}
	if p := o.Penalty(); !(got > 0 && got < p) {
		t.Fatalf("%s: θ = %v sits on a clamp of [0, %v]; the comparison would not see the state", what, got, p)
	}
	checkList(t, what, src, o, now, f.reference(o, now))
}

// checkList asserts that the non-zero list the source feeds the network for
// o at now is the list nn's gather builds from the dense reference state:
// ascending index, both signed zeros left out.
func checkList(t *testing.T, what string, src *ValueThresholdSource, o *order.Order, now float64, ref []float64) {
	t.Helper()
	var wantIdx []int32
	var wantVals []float64
	for i, v := range ref {
		if v != 0 {
			wantIdx = append(wantIdx, int32(i))
			wantVals = append(wantVals, v)
		}
	}
	idx, vals, own := src.state.observeList(src.Feat, o, now)
	if !slices.Equal(idx, wantIdx) || !slices.EqualFunc(vals, wantVals, sameBits) {
		t.Fatalf("%s: network input %v %v, the dense state's non-zeros %v %v", what, idx, vals, wantIdx, wantVals)
	}
	// The order's own entries are those before the environment block.
	wantOwn := 0
	for _, i := range wantIdx {
		if int(i) < 2*src.Feat.Index.NumCells()+2 {
			wantOwn++
		}
	}
	if own != wantOwn {
		t.Fatalf("%s: %d of the input's entries reported as the order's own, want %d", what, own, wantOwn)
	}
}

// TestSnapshotFollowsClockPoolAndFleet: each of the three ways the
// environment can move — a worker turning idle because the clock passed its
// FreeAt (no Update anywhere), a pool insert or remove, a booked worker —
// reaches the next Threshold exactly as a fresh source sees it, and nothing
// else triggers a rebuild.
func TestSnapshotFollowsClockPoolAndFleet(t *testing.T) {
	f := newLiveFixture(12)
	rng := rand.New(rand.NewSource(11))
	// Three workers are out on jobs that end at t = 100.
	for _, w := range f.fleet[:3] {
		w.FreeAt = 100
		f.wi.Update(w)
	}
	var pooled []*order.Order
	for id := 1; id <= 6; id++ {
		o := f.order(id, rng, 0)
		f.pool.Insert(o, 0)
		pooled = append(pooled, o)
	}
	probe := pooled[0]
	// Centre the untrained network's output inside (0, p) so that θ moves
	// with the state instead of sitting on a clamp.
	for i := 0; i < 400; i++ {
		f.mlp.TrainBatch([][]float64{f.reference(probe, 50)}, []float64{probe.Penalty() / 2}, 1e-2)
	}
	src := f.source(true)

	rebuilds := func() uint64 { return src.SnapshotStats().Rebuilds }
	f.checkThreshold(t, "first call", src, probe, 50)
	if rebuilds() != 1 {
		t.Fatalf("first call: %d rebuilds, want 1", rebuilds())
	}
	for _, o := range pooled {
		f.checkThreshold(t, "same instant, other order", src, o, 50)
	}
	if rebuilds() != 1 {
		t.Fatalf("nothing moved at t=50, yet %d rebuilds", rebuilds())
	}
	// The probe was asked twice at one key, every other order once.
	if s := src.SnapshotStats(); s.Exact != 7 || s.Ranges != 7 || s.Splits != 6 {
		t.Fatalf("t=50: %d thresholds, %d ranges, %d split passes, want 7, 7 and 6 (one memo hit)", s.Exact, s.Ranges, s.Splits)
	}

	// The clock alone: at t = 150 the three workers are idle again.
	before := f.wi.Generation()
	idle50, idle150 := f.wi.SupplyDistribution(50), f.wi.SupplyDistribution(150)
	if slicesEqual(idle50, idle150) {
		t.Fatal("fixture: supply must differ between t=50 and t=150")
	}
	f.checkThreshold(t, "clock passed FreeAt", src, probe, 150)
	if f.wi.Generation() != before || rebuilds() != 2 {
		t.Fatalf("clock step: generation %d -> %d, %d rebuilds (want unchanged, 2)", before, f.wi.Generation(), rebuilds())
	}

	// A pool insert, then a remove, at an unchanged clock.
	extra := f.order(99, rng, 140)
	f.pool.Insert(extra, 150)
	f.checkThreshold(t, "pool insert", src, probe, 150)
	f.pool.Remove(extra.ID, 150)
	f.checkThreshold(t, "pool remove", src, probe, 150)
	if rebuilds() != 4 {
		t.Fatalf("insert + remove: %d rebuilds, want 4", rebuilds())
	}

	// A dispatch books a worker: FreeAt and Loc move, Update follows.
	w := f.fleet[5]
	w.FreeAt, w.Loc = 900, f.net.Node(19, 19)
	f.wi.Update(w)
	f.checkThreshold(t, "worker booked", src, probe, 150)
	if rebuilds() != 5 {
		t.Fatalf("booking: %d rebuilds, want 5", rebuilds())
	}

	// Watch drops the snapshot even when the new signal starts at a key the
	// old one ended on (a second run's counters restart from zero).
	src.Watch(func() (uint64, uint64) { return f.pool.DemandGeneration(), f.wi.Generation() })
	f.checkThreshold(t, "after Watch", src, probe, 150)
	if rebuilds() != 6 {
		t.Fatalf("Watch: %d rebuilds, want 6", rebuilds())
	}
}

// TestMemoDroppedByWatch: an estimate memoized under one signal is not
// served under the next one, nor are the suffix sums it was computed from,
// even when the new signal reports the key the old one ended on and the
// environment moved in between — as when a second run's counters restart
// from zero on a different pool.
func TestMemoDroppedByWatch(t *testing.T) {
	f := newLiveFixture(12)
	rng := rand.New(rand.NewSource(4))
	probe := f.order(1, rng, 0)
	f.pool.Insert(probe, 0)
	for i := 0; i < 400; i++ {
		f.mlp.TrainBatch([][]float64{f.reference(probe, 50)}, []float64{probe.Penalty() / 2}, 1e-2)
	}
	src := f.source(true)
	frozen := func() (uint64, uint64) { return 0, 0 }
	src.Watch(frozen)
	f.checkThreshold(t, "first signal", src, probe, 50)
	for id := 2; id <= 7; id++ {
		f.pool.Insert(f.order(id, rng, 0), 0)
	}
	src.Watch(frozen)
	f.checkThreshold(t, "second signal, same key", src, probe, 50)
	if s := src.SnapshotStats(); s.Ranges != 2 || s.Splits != 2 || s.Rebuilds != 2 {
		t.Fatalf("%d ranges, %d split passes, %d rebuilds; want 2, 2, 2", s.Ranges, s.Splits, s.Rebuilds)
	}
}

func slicesEqual(a, b []float64) bool { return slices.EqualFunc(a, b, sameBits) }

// TestBareSourceRebuildsEveryCall: with no change signal nothing vouches
// for Demand and Supply between calls, so they are re-read each time — the
// literal benchmark/layers.go and outside callers write keeps its meaning.
func TestBareSourceRebuildsEveryCall(t *testing.T) {
	f := newLiveFixture(6)
	rng := rand.New(rand.NewSource(2))
	o := f.order(1, rng, 0)
	f.pool.Insert(o, 0)
	src := f.source(false)
	for i := 0; i < 5; i++ {
		src.Threshold(o, 10)
	}
	if s := src.SnapshotStats(); s.Exact != 5 || s.Rebuilds != 5 {
		t.Fatalf("%d thresholds, %d rebuilds, want 5 and 5: no snapshot reuse without a signal", s.Exact, s.Rebuilds)
	}
	if lo, hi := src.ThresholdRange(o, 10); !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
		t.Fatalf("a source with no signal claims [%v, %v]", lo, hi)
	}
	// A histogram that shrinks to nil must zero its block, not leave the
	// previous call's values behind.
	src.Demand = nil
	src.Threshold(o, 10)
	c := f.feat.Index.NumCells()
	for i := 2*c + 2; i < 4*c+2; i++ {
		if src.state.x[i] != 0 {
			t.Fatalf("state[%d] = %v after Demand became nil", i, src.state.x[i])
		}
	}
}

// TestThresholdSteadyStateAllocatesNothing: once its buffers are sized, a
// wired source computes thresholds and ranges — snapshot rebuilds, suffix
// sums, exact and split passes and memo hits alike — without touching the
// heap. Each run moves the clock, so
// it rebuilds once, then asks for every pooled order twice.
func TestThresholdSteadyStateAllocatesNothing(t *testing.T) {
	f := newLiveFixture(12)
	rng := rand.New(rand.NewSource(5))
	var pooled []*order.Order
	for id := 1; id <= 8; id++ {
		o := f.order(id, rng, 0)
		f.pool.Insert(o, 0)
		pooled = append(pooled, o)
	}
	src := f.source(true)
	now := 20.0
	round := func() {
		now += 10
		for range 2 {
			for _, o := range pooled {
				src.Threshold(o, now)
				src.ThresholdRange(o, now)
			}
		}
	}
	round() // sizes the buffers and the memo
	if n := testing.AllocsPerRun(50, round); n != 0 {
		t.Fatalf("a round of thresholds allocates %v times", n)
	}
	if s := src.SnapshotStats(); s.Rebuilds != 52 || s.Splits*2 != s.Ranges {
		t.Fatalf("%d ranges, %d split passes, %d rebuilds: the rounds did not exercise rebuild and memo", s.Ranges, s.Splits, s.Rebuilds)
	}
}

// checkedCollector runs a Collector and, at every point where it records a
// state, rebuilds that state the way the collector did before it had a
// snapshot: fresh histograms from the pool and the fleet, Features into a
// new vector.
type checkedCollector struct {
	*Collector
	t    *testing.T
	want map[*float64][]float64 // recorded state (by backing array) -> reference
}

func (c *checkedCollector) reference(o *order.Order, now float64) []float64 {
	pu, do := demand(c.Inner.Pool(), c.env.Index)
	return c.Feat.Features(o, now, pu, do, c.env.WIndex.SupplyDistribution(now))
}

func (c *checkedCollector) record(id int, ref []float64) {
	snaps := c.episodes[id].snaps
	got := snaps[len(snaps)-1].state
	if !slicesEqual(got, ref) {
		c.t.Fatalf("order %d snapshot %d differs from the per-call rebuild", id, len(snaps)-1)
	}
	if _, dup := c.want[&got[0]]; dup {
		c.t.Fatalf("order %d: recorded state shares its backing array with an earlier one", id)
	}
	c.want[&got[0]] = ref
}

func (c *checkedCollector) OnOrder(o *order.Order, now float64) {
	ref := c.reference(o, now) // the state before the order joins the pool
	c.Collector.OnOrder(o, now)
	c.record(o.ID, ref)
}

func (c *checkedCollector) OnTick(now float64) {
	c.Collector.OnTick(now)
	p := c.Inner.Pool()
	for _, id := range p.OrderIDs() {
		c.record(id, c.reference(p.Order(id), now))
	}
}

// TestCollectorStatesMatchPerCallRebuild: the collector's snapshot changes
// how often the environment is read, not one bit of any state it emits, and
// it is read once per tick instead of once per pooled order.
func TestCollectorStatesMatchPerCallRebuild(t *testing.T) {
	net := roadnet.NewGridCity(20, 20, 100, 10)
	ix := gridindex.New(net, 5)
	fw := core.New(strategy.Timeout{}, pool.DefaultOptions())
	var emitted []Experience
	col := NewCollector(fw, NewFeaturizer(ix, 600), strategy.ConstantThreshold(60), func(e Experience) {
		emitted = append(emitted, e)
	})
	cc := &checkedCollector{Collector: col, t: t, want: map[*float64][]float64{}}

	rng := rand.New(rand.NewSource(3))
	var orders []*order.Order
	for i := 0; i < 80; i++ {
		pu := net.Node(rng.Intn(20), rng.Intn(20))
		do := net.Node(rng.Intn(20), rng.Intn(20))
		if pu == do {
			continue
		}
		direct := net.Cost(pu, do)
		rel := float64(rng.Intn(300))
		orders = append(orders, &order.Order{
			ID: i + 1, Pickup: pu, Dropoff: do, Riders: 1,
			Release: rel, Deadline: rel + 2*direct, WaitLimit: 0.8 * direct, DirectCost: direct,
		})
	}
	var workers []*order.Worker
	for i := 0; i < 8; i++ {
		workers = append(workers, &order.Worker{ID: i + 1, Loc: net.Node(rng.Intn(20), rng.Intn(20)), Capacity: 4})
	}
	replay(t, net, workers, cc, orders)

	if len(emitted) == 0 {
		t.Fatal("no experience emitted")
	}
	check := func(what string, s []float64) {
		ref, ok := cc.want[&s[0]]
		if !ok {
			t.Fatalf("emitted %s was never recorded", what)
		}
		if !slicesEqual(s, ref) {
			t.Fatalf("emitted %s changed after it was recorded", what)
		}
	}
	for _, e := range emitted {
		check("State", e.State)
		if e.Next != nil {
			check("Next", e.Next)
		}
	}
	// Vacuity guards: states were recorded at ticks with several survivors,
	// and the environment was read far less often than once per state.
	observes, rebuilds := col.live.observes, col.live.rebuilds
	if observes != uint64(len(cc.want)) {
		t.Fatalf("%d states built, %d recorded", observes, len(cc.want))
	}
	if rebuilds*2 > observes {
		t.Fatalf("%d environment reads for %d states: the snapshot is not shared across a tick's survivors", rebuilds, observes)
	}
}

// BenchmarkThreshold times θ on a wired source over a pool of live size,
// the way a periodic check asks for it: every pooled order at one instant,
// then the clock moves.
func BenchmarkThreshold(b *testing.B) {
	net := roadnet.NewGridCity(42, 42, 100, 10)
	ix := gridindex.New(net, 10)
	feat := NewFeaturizer(ix, 7200)
	p := pool.New(route.NewPlanner(net), ix, pool.DefaultOptions())
	rng := rand.New(rand.NewSource(1))
	var fleet []*order.Worker
	for i := 0; i < 420; i++ {
		fleet = append(fleet, &order.Worker{ID: i, Loc: net.Node(rng.Intn(42), rng.Intn(42)), Capacity: 4})
	}
	wi := gridindex.NewWorkerIndex(ix, net, fleet)
	var pooled []*order.Order
	for id := 1; id <= 40; id++ {
		pu, do := net.Node(rng.Intn(42), rng.Intn(42)), net.Node(rng.Intn(42), rng.Intn(42))
		direct := net.Cost(pu, do)
		o := &order.Order{
			ID: id, Pickup: pu, Dropoff: do, Riders: 1,
			Deadline: 2*direct + 600, WaitLimit: 0.8 * direct, DirectCost: direct,
		}
		p.Insert(o, 0)
		pooled = append(pooled, o)
	}
	pu, do, sw := ix.NewDistribution(), ix.NewDistribution(), ix.NewDistribution()
	src := &ValueThresholdSource{
		Net: nn.New([]int{feat.Dim(), 64, 32, 1}, 1), Feat: feat,
		Demand: func() (gridindex.Distribution, gridindex.Distribution) {
			p.FillDemand(pu, do)
			return pu, do
		},
		Supply: func(now float64) gridindex.Distribution {
			wi.FillSupply(sw, now)
			return sw
		},
	}
	src.Watch(func() (uint64, uint64) { return p.DemandGeneration(), wi.Generation() })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = src.Threshold(pooled[i%len(pooled)], float64(10*(i/len(pooled))))
	}
}

var benchSink float64

// TestThresholdRangeHolds: the range a wired source claims always holds —
// θ inside it and never NaN — and it is claimed only where V is provably
// finite. A claimed range lies in [0, p] and is at most 2r wide, r the
// network's split radius, plus the rounding of p − (V̂ ± r): two ulps of p.
// Along the way every network input is checked against the dense state, on
// orders whose slot and waited entries are non-zero. Each way out of the
// proof gives the unbounded answer: a negative release (slot below the
// box), a NaN waited (SlotSeconds = 0 at now == release, where θ itself is
// NaN), an environment entry outside [0, 1], a network not finite on the
// box, and a negative penalty.
func TestThresholdRangeHolds(t *testing.T) {
	f := newLiveFixture(12)
	rng := rand.New(rand.NewSource(8))
	for id := 1; id <= 6; id++ {
		f.pool.Insert(f.order(id, rng, float64(rng.Intn(100))), 0)
	}
	src := f.source(true)
	bounded, open := 0, 0
	for i := 0; i < 300; i++ {
		o := f.order(100+i, rng, float64(rng.Intn(200)-20))
		now := o.Release + float64(rng.Intn(300))
		lo, hi := src.ThresholdRange(o, now)
		theta := src.Threshold(o, now)
		checkList(t, "random order", src, o, now, f.reference(o, now))
		if math.IsInf(lo, -1) {
			if o.Release >= 0 {
				t.Fatalf("order %d (release %v): unbounded, want a range", o.ID, o.Release)
			}
			continue
		}
		bounded++
		if o.Release < 0 {
			t.Fatalf("order %d: release %v puts the slot below the box, yet [%v, %v] is claimed", o.ID, o.Release, lo, hi)
		}
		p := o.Penalty()
		if !(lo <= theta && theta <= hi) {
			t.Fatalf("order %d: θ = %v outside the claimed [%v, %v]", o.ID, theta, lo, hi)
		}
		if !(0 <= lo && lo <= hi && hi <= p) {
			t.Fatalf("order %d: [%v, %v] is not inside [0, %v]", o.ID, lo, hi, p)
		}
		if ulp := math.Nextafter(p, math.Inf(1)) - p; hi-lo > 2*src.radius+2*ulp {
			t.Fatalf("order %d: [%v, %v] is %v wide, more than 2r + 2 ulp(p) = %v", o.ID, lo, hi, hi-lo, 2*src.radius+2*ulp)
		}
		if lo < hi {
			open++
		}
	}
	// Vacuity: most orders got a range, the radius is positive, and some
	// ranges are open — a point range everywhere would mean the radius
	// never reached θ's arithmetic.
	if bounded < 200 || !(src.radius > 0) || open == 0 {
		t.Fatalf("%d of 300 orders got a range, %d of them open, radius %v: the check is vacuous", bounded, open, src.radius)
	}
	t.Logf("%d of 300 orders got a range, %d of them open; radius %v", bounded, open, src.radius)

	unbounded := func(what string, src *ValueThresholdSource, o *order.Order, now float64) {
		t.Helper()
		if lo, hi := src.ThresholdRange(o, now); !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
			t.Fatalf("%s: claims [%v, %v], θ = %v", what, lo, hi, src.Threshold(o, now))
		}
	}
	o := f.order(900, rng, 30)

	unbounded("negative penalty", src, &order.Order{ID: 901, Pickup: o.Pickup, Dropoff: o.Dropoff, Release: 30, Deadline: 40, DirectCost: 20}, 40)

	nanWait := f.source(true)
	nanWait.Feat = &Featurizer{Index: f.feat.Index, SlotSeconds: 0, HorizonSeconds: 3600, MaxWaitSlots: 60}
	if th := nanWait.Threshold(o, o.Release); !math.IsNaN(th) {
		t.Fatalf("fixture: SlotSeconds = 0 at now == release gives θ = %v, want NaN", th)
	}
	unbounded("NaN waited", nanWait, o, o.Release)

	for _, env := range []struct {
		name string
		v    float64
	}{{"unnormalized demand", 3}, {"NaN demand", math.NaN()}, {"negative demand", -0.5}} {
		bad := f.source(true)
		d := f.feat.Index.NewDistribution()
		d[0] = env.v
		bad.Demand = func() (gridindex.Distribution, gridindex.Distribution) { return d, nil }
		unbounded(env.name, bad, o, 60)
	}

	huge := f.source(true)
	huge.Net = hugeNet(t, f.feat.Dim())
	unbounded("network not finite on the box", huge, o, 60)
}

// hugeNet is a linear network whose every weight is 1e300: finite, so Load
// accepts it, but a state with two non-zeros already overflows.
func hugeNet(t *testing.T, dim int) *nn.MLP {
	t.Helper()
	w := make([]float64, dim)
	for i := range w {
		w[i] = 1e300
	}
	var buf bytes.Buffer
	// nn's wire form, by field name.
	err := gob.NewEncoder(&buf).Encode(struct {
		Sizes   []int
		Weights [][]float64
		Biases  [][]float64
	}{[]int{dim, 1}, [][]float64{w}, [][]float64{{0}}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := nn.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
