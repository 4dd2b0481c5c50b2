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

// TestPauseResume pins the admin freeze: paused platforms refuse ingestion
// with ErrPaused (typed, recoverable), resume restores it, and a
// pause/resume cycle that drops no traffic is metrics-neutral.
func TestPauseResume(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	run := func(pause bool) *sim.Metrics {
		p, err := New(net, testFleet(net, 2), WithMeasuredTime(false))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if pause && i == 5 {
				if err := p.Pause(); err != nil {
					t.Fatal(err)
				}
				if err := p.Submit(testOrder(net, 100, 60)); !errors.Is(err, ErrPaused) {
					t.Fatalf("paused submit: %v", err)
				}
				if _, err := p.Tick(); !errors.Is(err, ErrPaused) {
					t.Fatalf("paused tick: %v", err)
				}
				if !p.Stats().Paused {
					t.Fatal("Stats does not show the pause")
				}
				if err := p.Resume(); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Submit(testOrder(net, i+1, float64(i*9))); err != nil {
				t.Fatal(err)
			}
		}
		m, err := p.Close()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	plain, paused := run(false), run(true)
	if *plain != *paused {
		t.Fatalf("pause/resume changed metrics:\nplain:  %+v\npaused: %+v", *plain, *paused)
	}

	p, err := New(net, testFleet(net, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Pause(); !errors.Is(err, ErrClosed) {
		t.Fatalf("pause after close: %v", err)
	}
	if err := p.Resume(); !errors.Is(err, ErrClosed) {
		t.Fatalf("resume after close: %v", err)
	}
}

// TestObserver pins the journal hook: the synchronous observer sees the
// exact event sequence the channel bus delivers, without subscribing to
// the channel at all — and when both taps exist, both see everything.
func TestObserver(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	feed := func(p *Platform) {
		t.Helper()
		for i := 0; i < 8; i++ {
			if err := p.Submit(testOrder(net, i+1, float64(i*11))); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}

	var observed []Event
	p, err := New(net, testFleet(net, 2), WithMeasuredTime(false),
		WithObserver(func(ev Event) { observed = append(observed, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	feed(p)
	if len(observed) == 0 {
		t.Fatal("observer saw nothing")
	}

	// Reference arm: same workload through the channel bus only.
	p2, err := New(net, testFleet(net, 2), WithMeasuredTime(false))
	if err != nil {
		t.Fatal(err)
	}
	var busDelivered []Event
	events := p2.Events()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			busDelivered = append(busDelivered, ev)
		}
	}()
	feed(p2)
	<-done

	if len(observed) != len(busDelivered) {
		t.Fatalf("observer saw %d events, bus delivered %d", len(observed), len(busDelivered))
	}
	for i := range observed {
		if observed[i].When() != busDelivered[i].When() {
			t.Fatalf("event %d: observer t=%v, bus t=%v", i, observed[i].When(), busDelivered[i].When())
		}
	}

	// Both taps at once: the channel receives exactly what the observer saw.
	var both []Event
	p3, err := New(net, testFleet(net, 2), WithMeasuredTime(false),
		WithObserver(func(ev Event) { both = append(both, ev) }))
	if err != nil {
		t.Fatal(err)
	}
	ch := p3.Events()
	var chGot int
	done3 := make(chan struct{})
	go func() {
		defer close(done3)
		for range ch {
			chGot++
		}
	}()
	feed(p3)
	<-done3
	if chGot != len(both) {
		t.Fatalf("dual-tap divergence: observer %d, channel %d", len(both), chGot)
	}

	if _, err := New(net, testFleet(net, 1), WithObserver(nil)); err == nil {
		t.Fatal("nil observer must be rejected")
	}
}

// TestStatsComposite pins the unified observability snapshot: the order
// ledger matches the metrics, the pool-cache and shard counters agree with
// the deprecated per-subsystem accessors, and lifecycle flags track state.
func TestStatsComposite(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	fw := core.New(strategy.Online{}, pool.DefaultOptions())
	p, err := New(net, testFleet(net, 2), WithMeasuredTime(false),
		WithAlgorithm(fw), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Closed || st.Paused || st.Orders.Submitted != 0 {
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
	if !st.ShardActive {
		t.Fatal("K=2 platform must expose shard stats")
	}
	if got := fw.ShardEngine().Stats(); got != st.Shard {
		t.Fatalf("shard counters diverged: %+v vs %+v", st.Shard, got)
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
// uses: counters sum, the clock takes the max, and lifecycle flags combine
// as documented (Closed ANDs, Paused ORs).
func TestStatsMerge(t *testing.T) {
	a := Stats{Clock: 50, Closed: true, Orders: OrderCounts{Submitted: 10, Served: 7, Rejected: 2, Pending: 1}}
	a.PoolCache.Hits = 5
	a.Shard.GroupHits = 3
	a.ShardActive = true
	b := Stats{Clock: 80, Paused: true, Orders: OrderCounts{Submitted: 4, Served: 4}}
	b.PoolCache.Hits = 2
	b.PoolCacheActive = true

	agg := a
	agg.Merge(b)
	if agg.Clock != 80 || agg.Closed || !agg.Paused {
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
	a := Stats{Clock: 50, Closed: true, Paused: true,
		Orders: OrderCounts{Submitted: 9, Served: 6, Rejected: 2, Pending: 1}}
	a.ShardActive = true
	a.Shard.Ticks = 4
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
// max in both directions, Closed is an AND, Paused is an OR, and the
// subsystem-active flags OR (a fleet with one sharded city reports
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
	if x.Paused || y.Paused {
		t.Fatal("no-paused fleet must fold to not Paused")
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
// doubled (fields with max semantics — Clock, the event-bus high-water
// mark — stay put instead). Adding a counter to shard.Stats or
// pool.CacheStats without extending Merge fails here — the field would
// come back un-doubled.
func TestStatsMergeCoversEveryCounter(t *testing.T) {
	// High-water marks fold by max, not sum: self-merge leaves them put.
	maxFields := map[string]bool{
		"Stats.EventQueueHighWater": true,
	}
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
				if maxFields[name] {
					if m.Int() != o.Int() {
						t.Errorf("%s = %d after self-merge, want unchanged %d (max, not sum)",
							name, m.Int(), o.Int())
					}
					continue
				}
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
