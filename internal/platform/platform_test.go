package platform

import (
	"errors"
	"strings"
	"testing"

	"watter/internal/core"
	"watter/internal/order"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/sim"
	"watter/internal/strategy"
)

func testFleet(net *roadnet.GridCity, m int) []*order.Worker {
	workers := make([]*order.Worker, m)
	for i := range workers {
		workers[i] = &order.Worker{ID: i + 1, Loc: net.Node(i%10, (i*3)%10), Capacity: 4}
	}
	return workers
}

func testOrder(net *roadnet.GridCity, id int, rel float64) *order.Order {
	pu, do := net.Node(0, 0), net.Node(5, 0)
	direct := net.Cost(pu, do)
	return &order.Order{
		ID: id, Pickup: pu, Dropoff: do, Riders: 1,
		Release: rel, Deadline: rel + 2*direct, WaitLimit: 0.8 * direct,
		DirectCost: direct,
	}
}

// TestNewValidates pins the constructor's no-silent-defaults contract:
// every invalid option surfaces as an error from New, not as a coerced
// value.
func TestNewValidates(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	fleet := testFleet(net, 3)
	cases := map[string][]Option{
		"zero tick":         {WithTick(0)},
		"negative tick":     {WithTick(-3)},
		"invalid config":    {WithConfig(sim.Config{})},
		"nil algorithm":     {WithAlgorithm(nil)},
		"zero event buffer": {WithEventBuffer(0)},
	}
	for name, opts := range cases {
		if _, err := New(net, fleet, opts...); err == nil {
			t.Fatalf("%s: New must fail", name)
		}
	}
	if _, err := New(nil, fleet); err == nil {
		t.Fatal("nil network must fail")
	}
	if _, err := New(net, []*order.Worker{{ID: 1, Capacity: 0}}); err == nil {
		t.Fatal("seatless worker must fail")
	}
	if _, err := New(net, []*order.Worker{{ID: 0, Capacity: 4}}); err == nil {
		t.Fatal("zero worker ID must fail (0 is the no-worker event sentinel)")
	}
	if _, err := New(net, fleet); err != nil {
		t.Fatalf("valid defaults rejected: %v", err)
	}
}

// stub is a minimal algorithm with no pool.
type stub struct{}

func (stub) Name() string                        { return "stub" }
func (stub) Init(*sim.Env)                       {}
func (stub) OnOrder(o *order.Order, now float64) {}
func (stub) OnTick(now float64)                  {}
func (stub) Finish(now float64)                  {}

// TestSubmitValidatesAndOrders pins the ingestion error surface: invalid
// orders and out-of-order releases are rejected, and the platform is
// unusable after Close.
func TestSubmitValidatesAndOrders(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	p, err := New(net, testFleet(net, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(nil); err == nil {
		t.Fatal("nil order accepted")
	}
	bad := testOrder(net, 1, 50)
	bad.Riders = 0
	if err := p.Submit(bad); err == nil || !strings.Contains(err.Error(), "riders") {
		t.Fatalf("invalid order: %v", err)
	}
	if err := p.Submit(testOrder(net, 2, 50)); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(testOrder(net, 3, 20)); err == nil {
		t.Fatal("out-of-order release accepted")
	}
	m, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(testOrder(net, 4, 99)); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if _, err := p.Tick(); !errors.Is(err, ErrClosed) {
		t.Fatalf("tick after close: %v", err)
	}
	if _, err := p.Replay(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("replay after close: %v", err)
	}
	m2, err := p.Close()
	if err != nil || m2 != m {
		t.Fatalf("double close must repeat the first result: got (%p, %v), want (%p, nil)", m2, err, m)
	}
}

// TestEventSequence pins the typed event stream of a tiny deterministic
// scenario: admission before outcome, tick snapshots in time order, the
// channel closing at Close, and payloads that agree with the metrics.
func TestEventSequence(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	p, err := New(net, testFleet(net, 2), WithMeasuredTime(false))
	if err != nil {
		t.Fatal(err)
	}
	events := p.Events()
	if got := p.Events(); got != events {
		t.Fatal("Events must be stable across calls")
	}
	var got []Event
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ev := range events {
			got = append(got, ev)
		}
	}()
	o := testOrder(net, 1, 5)
	if err := p.Submit(o); err != nil {
		t.Fatal(err)
	}
	m, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	<-done

	var admitted, dispatched, rejected, ticks int
	lastWhen := -1.0
	for _, ev := range got {
		if ev.When() < lastWhen {
			t.Fatalf("event time went backwards: %v after %v", ev.When(), lastWhen)
		}
		lastWhen = ev.When()
		switch e := ev.(type) {
		case OrderAdmitted:
			admitted++
			if e.Order.DirectCost == 0 {
				t.Fatal("admitted order not enriched")
			}
		case GroupDispatched:
			dispatched += e.Size()
			if e.WorkerID == 0 {
				t.Fatal("dispatch without a worker")
			}
		case OrderRejected:
			rejected++
		case TickCompleted:
			ticks++
		default:
			t.Fatalf("unknown event %T", ev)
		}
	}
	if admitted != m.Total || dispatched != m.Served || rejected != m.Rejected {
		t.Fatalf("events admitted=%d dispatched=%d rejected=%d vs metrics %+v",
			admitted, dispatched, rejected, m)
	}
	if m.Served != 1 {
		t.Fatalf("scenario drifted: %+v", m)
	}
	if ticks == 0 {
		t.Fatal("no tick snapshots")
	}
}

// TestReplayMatchesBatchRun pins Replay's adapter equivalence at the
// platform level (the cross-algorithm property test lives in exp): same
// workload, same metrics as sim.Run, and the caller's orders survive
// untouched.
func TestReplayMatchesBatchRun(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	mk := func() []*order.Order {
		var orders []*order.Order
		for i := 0; i < 30; i++ {
			o := testOrder(net, i+1, float64(i*7%40))
			o.DirectCost = 0 // exercise admission-time enrichment
			orders = append(orders, o)
		}
		return orders
	}
	orders := mk()
	alg := func() sim.Algorithm { return core.New(strategy.Online{}, pool.DefaultOptions()) }

	env := sim.NewEnv(net, testFleet(net, 4), sim.DefaultConfig())
	opts := sim.DefaultRunOptions()
	opts.MeasureTime = false
	batch := sim.Run(env, alg(), mk(), opts)

	p, err := New(net, testFleet(net, 4), WithMeasuredTime(false), WithAlgorithm(alg()))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := p.Replay(orders)
	if err != nil {
		t.Fatal(err)
	}
	if *batch != *streamed {
		t.Fatalf("replay diverged:\nbatch:  %+v\nstream: %+v", *batch, *streamed)
	}
	for i, o := range orders {
		if o.DirectCost != 0 {
			t.Fatalf("caller's order %d mutated: DirectCost=%v", i, o.DirectCost)
		}
	}
}

// TestReplayErrorAborts pins the failure hygiene of a mid-replay error:
// the platform closes (no further use) and the event channel closes, so
// a ranging consumer terminates instead of hanging.
func TestReplayErrorAborts(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	p, err := New(net, testFleet(net, 1), WithMeasuredTime(false))
	if err != nil {
		t.Fatal(err)
	}
	events := p.Events()
	if _, err := p.Tick(); err != nil { // clock advances to 10
		t.Fatal(err)
	}
	if _, err := p.Replay([]*order.Order{testOrder(net, 1, 5)}); err == nil {
		t.Fatal("replay behind the advanced clock must fail")
	}
	for range events { // must terminate: the abort closed the bus
	}
	if err := p.Submit(testOrder(net, 2, 50)); !errors.Is(err, ErrClosed) {
		t.Fatalf("aborted platform still accepts orders: %v", err)
	}
	if _, err := p.Close(); !errors.Is(err, ErrAborted) {
		t.Fatalf("close after abort must report the abort: %v", err)
	}
}

// TestEventsLateSubscription pins the misuse guard: subscribing after
// the run started (or after Close) yields an already-closed channel — a
// ranging consumer exits immediately instead of hanging on a bus that
// will never deliver or close.
func TestEventsLateSubscription(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	p, err := New(net, testFleet(net, 1), WithMeasuredTime(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Tick(); err != nil {
		t.Fatal(err)
	}
	for range p.Events() { // must exit immediately, not deadlock
		t.Fatal("late subscriber received an event")
	}
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, err := New(net, testFleet(net, 1), WithMeasuredTime(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.Close(); err != nil {
		t.Fatal(err)
	}
	for range p2.Events() {
		t.Fatal("post-close subscriber received an event")
	}
}

// TestTickDrivesPlatform pins the live-feed path: manual ticks advance
// the clock and fire periodic checks without any orders.
func TestTickDrivesPlatform(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	p, err := New(net, testFleet(net, 1), WithTick(15), WithMeasuredTime(false))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{15, 30, 45} {
		got, err := p.Tick()
		if err != nil || got != want {
			t.Fatalf("tick %d = %v, %v (want %v)", i, got, err, want)
		}
	}
	if c := p.Clock(); c != 45 {
		t.Fatalf("clock = %v", c)
	}
	if m := p.Metrics(); m.Total != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if p.Algorithm().Name() != "WATTER-online" {
		t.Fatalf("default algorithm = %q", p.Algorithm().Name())
	}
}
