package platform

import (
	"errors"
	"reflect"
	"testing"

	"watter/internal/core"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/shard"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// TestCloseIdempotent pins the restart-path contract: the second and every
// later Close returns the first call's exact (*Metrics, error) pair, for
// clean closes and for aborts alike.
func TestCloseIdempotent(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	p, err := New(net, testFleet(net, 2), WithMeasuredTime(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(testOrder(net, 1, 5)); err != nil {
		t.Fatal(err)
	}
	m1, err1 := p.Close()
	if err1 != nil || m1 == nil {
		t.Fatalf("first close: %v, %v", m1, err1)
	}
	for i := 0; i < 3; i++ {
		m, err := p.Close()
		if m != m1 || err != nil {
			t.Fatalf("close #%d: got (%p, %v), want the memoized (%p, nil)", i+2, m, err, m1)
		}
	}

	// Abort path: Close must keep reporting the abort, never a nil error.
	p2, err := New(net, testFleet(net, 2), WithMeasuredTime(false))
	if err != nil {
		t.Fatal(err)
	}
	p2.Abort()
	p2.Abort() // idempotent, must not panic
	if _, err := p2.Close(); !errors.Is(err, ErrAborted) {
		t.Fatalf("close after abort: %v", err)
	}
	if _, err := p2.Close(); !errors.Is(err, ErrAborted) {
		t.Fatalf("second close after abort: %v", err)
	}
	if err := p2.Submit(testOrder(net, 1, 5)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after abort: %v", err)
	}
}

// initObserver wraps an algorithm with an observer it registers at Init,
// the way offline training's collector listens.
type initObserver struct {
	sim.Algorithm
	fn func(Event)
}

func (a initObserver) Init(env *sim.Env) {
	env.Observe(a.fn)
	a.Algorithm.Init(env)
}

// TestObserver pins the journal hook: the WithObserver callback sees every
// outcome the metrics count, in time order, each before the observer the
// algorithm registers at Init sees it; the last WithObserver wins, and a
// nil one is refused.
func TestObserver(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	var seen []string
	var observed []Event
	var dispatched, rejected int
	alg := initObserver{
		Algorithm: core.New(strategy.Online{}, pool.DefaultOptions()),
		fn:        func(Event) { seen = append(seen, "alg") },
	}
	p, err := New(net, testFleet(net, 2), WithMeasuredTime(false), WithAlgorithm(alg),
		WithObserver(func(Event) { t.Fatal("an overridden observer was called") }),
		WithObserver(func(ev Event) {
			seen = append(seen, "platform")
			observed = append(observed, ev)
			switch e := ev.(type) {
			case GroupDispatched:
				dispatched += e.Size()
			case OrderRejected:
				rejected++
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := p.Submit(testOrder(net, i+1, float64(i*11))); err != nil {
			t.Fatal(err)
		}
	}
	m, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(observed) == 0 || dispatched != m.Served || rejected != m.Rejected {
		t.Fatalf("observer saw %d events, %d served and %d rejected; metrics %+v", len(observed), dispatched, rejected, *m)
	}
	for i := 1; i < len(observed); i++ {
		if observed[i].When() < observed[i-1].When() {
			t.Fatalf("event %d at t=%v after one at t=%v", i, observed[i].When(), observed[i-1].When())
		}
	}
	if len(seen) != 2*len(observed) {
		t.Fatalf("the Init observer saw %d events, the platform's %d", len(seen)-len(observed), len(observed))
	}
	for i := 0; i < len(seen); i += 2 {
		if seen[i] != "platform" || seen[i+1] != "alg" {
			t.Fatalf("event %d reached %s first, want the platform's observer", i/2, seen[i])
		}
	}

	if _, err := New(net, testFleet(net, 1), WithObserver(nil)); err == nil {
		t.Fatal("nil observer must be rejected")
	}
}

// TestStatsComposite pins the unified observability snapshot: the order
// ledger matches the metrics, the pool-cache counters agree with the pool's
// accessor, the retired shard fields stay zero even under WithShards(2),
// and the closed flag tracks state.
func TestStatsComposite(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	fw := core.New(strategy.Online{}, pool.DefaultOptions())
	p, err := New(net, testFleet(net, 2), WithMeasuredTime(false),
		WithAlgorithm(fw), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Closed || st.Orders.Submitted != 0 {
		t.Fatalf("fresh platform stats: %+v", st)
	}
	for i := 0; i < 12; i++ {
		if err := p.Submit(testOrder(net, i+1, float64(i*8))); err != nil {
			t.Fatal(err)
		}
	}
	m, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if !st.Closed {
		t.Fatal("closed platform must report Closed")
	}
	if st.Orders.Submitted != m.Total || st.Orders.Served != m.Served ||
		st.Orders.Rejected != m.Rejected ||
		st.Orders.Pending != m.Total-m.Served-m.Rejected {
		t.Fatalf("order ledger diverged from metrics: %+v vs %+v", st.Orders, *m)
	}
	if !st.PoolCacheActive {
		t.Fatal("pooling framework must expose its plan cache")
	}
	if got := fw.Pool().CacheStats(); got != st.PoolCache {
		t.Fatalf("pool cache counters diverged: %+v vs %+v", st.PoolCache, got)
	}
	if st.ShardActive || st.Shard != (shard.Stats{}) || fw.ShardEngine() != nil {
		t.Fatalf("WithShards(2) started a shard engine: %+v", st)
	}

	// Baselines without pool or engine report inactive, not zero-lies.
	p2, err := New(net, testFleet(net, 1), WithAlgorithm(stub{}))
	if err != nil {
		t.Fatal(err)
	}
	if st := p2.Stats(); st.PoolCacheActive || st.ShardActive {
		t.Fatalf("stub algorithm claims subsystems: %+v", st)
	}
}

// TestStatsMerge pins the fleet-aggregation fold the proxy admin plane
// uses: counters sum, the clock takes the max, and Closed ANDs.
func TestStatsMerge(t *testing.T) {
	a := Stats{Clock: 50, Closed: true, Orders: OrderCounts{Submitted: 10, Served: 7, Rejected: 2, Pending: 1}}
	a.PoolCache.Hits = 5
	a.Shard.GroupHits = 3
	a.ShardActive = true
	b := Stats{Clock: 80, Orders: OrderCounts{Submitted: 4, Served: 4}}
	b.PoolCache.Hits = 2
	b.PoolCacheActive = true

	agg := a
	agg.Merge(b)
	if agg.Clock != 80 || agg.Closed {
		t.Fatalf("lifecycle fold wrong: %+v", agg)
	}
	if agg.Orders.Submitted != 14 || agg.Orders.Served != 11 || agg.Orders.Rejected != 2 || agg.Orders.Pending != 1 {
		t.Fatalf("ledger fold wrong: %+v", agg.Orders)
	}
	if agg.PoolCache.Hits != 7 || !agg.PoolCacheActive || agg.Shard.GroupHits != 3 || !agg.ShardActive {
		t.Fatalf("subsystem fold wrong: %+v", agg)
	}
}

// TestStatsMergeZeroValue pins the fold's edge semantics around the
// zero-value snapshot. The zero Stats is NOT a Merge identity: its
// Closed=false represents a member that is still running, so folding it
// into a closed aggregate must reopen the aggregate (closed only when
// every member is closed). Everything else — counters, clock, flags —
// must pass through unchanged.
func TestStatsMergeZeroValue(t *testing.T) {
	a := Stats{Clock: 50, Closed: true,
		Orders: OrderCounts{Submitted: 9, Served: 6, Rejected: 2, Pending: 1}}
	a.ShardActive = true
	a.Shard.PrewarmTasks = 4
	a.PoolCacheActive = true
	a.PoolCache.Hits = 3

	got := a
	got.Merge(Stats{})
	want := a
	want.Closed = false // zero member is "still running"
	if got != want {
		t.Fatalf("Merge(zero) = %+v, want %+v", got, want)
	}

	// Folding the other way: a zero aggregate absorbing a member keeps
	// Closed false for the same reason and copies everything else.
	got = Stats{}
	got.Merge(a)
	if got != want {
		t.Fatalf("zero.Merge(a) = %+v, want %+v", got, want)
	}
}

// TestStatsMergeClockAndFlags pins the non-additive folds: Clock is a
// max in both directions, Closed is an AND, and the subsystem-active
// flags OR (a fleet with one sharded city reports
// sharding active; a fleet with none does not).
func TestStatsMergeClockAndFlags(t *testing.T) {
	newer := Stats{Clock: 90, Closed: true}
	older := Stats{Clock: 30, Closed: true}
	x := newer
	x.Merge(older)
	if x.Clock != 90 {
		t.Fatalf("max(90, 30) clock = %v", x.Clock)
	}
	y := older
	y.Merge(newer)
	if y.Clock != 90 {
		t.Fatalf("max(30, 90) clock = %v", y.Clock)
	}
	if !x.Closed || !y.Closed {
		t.Fatal("all-closed fleet must fold to Closed")
	}

	inactive := Stats{}
	inactive.Merge(Stats{})
	if inactive.ShardActive || inactive.PoolCacheActive {
		t.Fatalf("inactive+inactive claims subsystems: %+v", inactive)
	}
	one := Stats{ShardActive: true}
	one.Merge(Stats{PoolCacheActive: true})
	if !one.ShardActive || !one.PoolCacheActive {
		t.Fatalf("active flags must OR: %+v", one)
	}
}

// TestStatsMergeCoversEveryCounter self-merges a snapshot whose every
// numeric field holds a distinct value and checks each one exactly
// doubled (Clock, a max, stays put instead). Adding a counter to
// shard.Stats or pool.CacheStats without extending Merge fails here — the
// field would come back un-doubled.
func TestStatsMergeCoversEveryCounter(t *testing.T) {
	var s Stats
	n := int64(1)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			switch f.Kind() {
			case reflect.Struct:
				fill(f)
			case reflect.Int:
				f.SetInt(n)
				n++
			case reflect.Uint64:
				f.SetUint(uint64(n))
				n++
			}
		}
	}
	fill(reflect.ValueOf(&s).Elem())
	s.Clock = 41.5

	d := s
	d.Merge(s)
	var check func(path string, orig, merged reflect.Value)
	check = func(path string, orig, merged reflect.Value) {
		for i := 0; i < orig.NumField(); i++ {
			name := path + "." + orig.Type().Field(i).Name
			o, m := orig.Field(i), merged.Field(i)
			switch o.Kind() {
			case reflect.Struct:
				check(name, o, m)
			case reflect.Int:
				if m.Int() != 2*o.Int() {
					t.Errorf("%s = %d after self-merge, want %d — field missing from Merge?",
						name, m.Int(), 2*o.Int())
				}
			case reflect.Uint64:
				if m.Uint() != 2*o.Uint() {
					t.Errorf("%s = %d after self-merge, want %d — field missing from Merge?",
						name, m.Uint(), 2*o.Uint())
				}
			}
		}
	}
	check("Stats", reflect.ValueOf(s), reflect.ValueOf(d))
	if d.Clock != s.Clock {
		t.Errorf("Clock = %v after self-merge, want unchanged %v (max, not sum)", d.Clock, s.Clock)
	}
}

// TestStatsInactiveSubsystems pins Platform.Stats on platforms whose
// algorithm exposes no shard engine and no pool: the flags must read
// inactive with genuinely zero counters, and a K=1 pooled platform must
// report the pool cache active but sharding inactive.
func TestStatsInactiveSubsystems(t *testing.T) {
	net := roadnet.NewGridCity(8, 8, 100, 10)

	p, err := New(net, testFleet(net, 1), WithAlgorithm(stub{}))
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.ShardActive || st.PoolCacheActive {
		t.Fatalf("stub platform claims subsystems: %+v", st)
	}
	if st.Shard != (shard.Stats{}) || st.PoolCache != (pool.CacheStats{}) {
		t.Fatalf("inactive subsystems must report zero counters: %+v", st)
	}

	solo, err := New(net, testFleet(net, 1), WithMeasuredTime(false),
		WithAlgorithm(core.New(strategy.Online{}, pool.DefaultOptions())))
	if err != nil {
		t.Fatal(err)
	}
	// The framework builds its pool lazily at algorithm init, so drive
	// one order through before reading the snapshot.
	if err := solo.Submit(testOrder(net, 1, 0)); err != nil {
		t.Fatal(err)
	}
	st = solo.Stats()
	if st.ShardActive {
		t.Fatalf("K=1 platform claims a shard engine: %+v", st)
	}
	if !st.PoolCacheActive {
		t.Fatalf("pooled K=1 platform must expose its plan cache: %+v", st)
	}
}
