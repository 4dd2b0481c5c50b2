package sim_test

// The scheduling contract a platform.Platform runs every sim.Algorithm
// under: tick cadence, admission, release ordering, the drain at Close.
// These tests drive the platform from here (platform imports sim, so only
// the external test package can) with a recorder algorithm that captures
// every hook invocation.

import (
	"errors"
	"math"
	"strings"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/roadnet"
	"watter/internal/sim"
)

func testNet() *roadnet.GridCity { return roadnet.NewGridCity(10, 10, 100, 10) }

// newPlatform stands a recorder up over m workers at Δt = 10 s, untimed
// unless the options say otherwise.
func newPlatform(t *testing.T, net *roadnet.GridCity, m int, rec *recorder, opts ...platform.Option) *platform.Platform {
	t.Helper()
	var workers []*order.Worker
	for i := 0; i < m; i++ {
		workers = append(workers, &order.Worker{ID: i + 1, Loc: net.Node(i%10, (i*3)%10), Capacity: 4})
	}
	all := append([]platform.Option{platform.WithMeasuredTime(false), platform.WithAlgorithm(rec)}, opts...)
	p, err := platform.New(net, workers, all...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mkOrder(net *roadnet.GridCity, id int, rel float64) *order.Order {
	pu, do := net.Node(0, 0), net.Node(5, 0)
	direct := net.Cost(pu, do)
	return &order.Order{
		ID: id, Pickup: pu, Dropoff: do, Riders: 1,
		Release: rel, Deadline: rel + 2*direct, WaitLimit: 0.8 * direct,
		DirectCost: direct,
	}
}

// recorder is a minimal Algorithm capturing hook invocations. It rejects
// every order, or serves it solo when serveIt is set.
type recorder struct {
	inits   int
	orders  []float64
	ticks   []float64
	finish  float64
	env     *sim.Env
	serveIt bool
}

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) Init(env *sim.Env) {
	r.inits++
	r.env = env
}
func (r *recorder) OnOrder(o *order.Order, now float64) {
	r.orders = append(r.orders, now)
	if r.serveIt {
		plan, ok := r.env.Planner.PlanGroup([]*order.Order{o}, now, 4)
		if ok && r.env.DispatchGroup(&order.Group{Orders: []*order.Order{o}, Plan: plan}, now) {
			return
		}
	}
	r.env.Reject(o, now)
}
func (r *recorder) OnTick(now float64) { r.ticks = append(r.ticks, now) }
func (r *recorder) Finish(now float64) { r.finish = now }

func replay(t *testing.T, p *platform.Platform, orders []*order.Order) *sim.Metrics {
	t.Helper()
	m, err := p.Replay(orders)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestStreamEmptyStream pins the empty-workload semantics: no orders means
// no ticks at all and Finish at time zero.
func TestStreamEmptyStream(t *testing.T) {
	rec := &recorder{}
	m := replay(t, newPlatform(t, testNet(), 1, rec), nil)
	if len(rec.ticks) != 0 {
		t.Fatalf("ticks on an empty stream: %v", rec.ticks)
	}
	if rec.finish != 0 || rec.inits != 1 {
		t.Fatalf("finish=%v inits=%d", rec.finish, rec.inits)
	}
	if m.Total != 0 || m.Served != 0 || m.Rejected != 0 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestStreamTickBoundaryRelease pins the tie-break an order released
// exactly on a tick boundary gets: the tick fires first, then the order
// is delivered at the same timestamp — submitted alone or replayed.
func TestStreamTickBoundaryRelease(t *testing.T) {
	net := testNet()
	rec := &recorder{}
	p := newPlatform(t, net, 1, rec)
	if err := p.Submit(mkOrder(net, 1, 10)); err != nil {
		t.Fatal(err)
	}
	if len(rec.ticks) != 1 || rec.ticks[0] != 10 {
		t.Fatalf("ticks before boundary order = %v, want [10]", rec.ticks)
	}
	if len(rec.orders) != 1 || rec.orders[0] != 10 {
		t.Fatalf("order deliveries = %v", rec.orders)
	}
	if _, err := p.Close(); err != nil {
		t.Fatal(err)
	}
	rec2 := &recorder{}
	replay(t, newPlatform(t, net, 1, rec2), []*order.Order{mkOrder(net, 2, 10)})
	if len(rec2.ticks) == 0 || rec2.ticks[0] != 10 || rec2.orders[0] != 10 {
		t.Fatalf("replay cadence: ticks=%v orders=%v", rec2.ticks, rec2.orders)
	}
}

// TestStreamOrderingAndLifecycle covers the live-ingestion error surface:
// out-of-order submissions, submissions behind a manually advanced clock,
// and use after Close.
func TestStreamOrderingAndLifecycle(t *testing.T) {
	net := testNet()
	p := newPlatform(t, net, 1, &recorder{})
	if err := p.Submit(mkOrder(net, 1, 25)); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(mkOrder(net, 2, 12)); err == nil ||
		!strings.Contains(err.Error(), "release order") {
		t.Fatalf("out-of-order submit: %v", err)
	}
	if tk, err := p.Tick(); err != nil || tk != 30 {
		t.Fatalf("manual tick = %v, %v (want 30)", tk, err)
	}
	if err := p.Submit(mkOrder(net, 3, 28)); err == nil {
		t.Fatal("submit behind the advanced clock must fail")
	}
	if err := p.Submit(mkOrder(net, 4, 30)); err != nil {
		t.Fatalf("submit at the advanced clock: %v", err)
	}
	m, err := p.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(mkOrder(net, 5, 99)); !errors.Is(err, platform.ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if _, err := p.Tick(); !errors.Is(err, platform.ErrClosed) {
		t.Fatalf("tick after close: %v", err)
	}
	if m2, err := p.Close(); m2 != m || err != nil {
		t.Fatalf("double close: (%p, %v), want the first (%p, nil)", m2, err, m)
	}
}

// TestStreamRefusesInadmissibleOrders pins the one admission check Submit
// and Replay share: a nil order, a non-finite or inconsistent field, or a
// node outside the network is refused with an error wrapping
// order.ErrInvalid, and the refusal leaves the run unstarted — no Init, no
// tick, no clock, no metrics.
func TestStreamRefusesInadmissibleOrders(t *testing.T) {
	net := testNet()
	rec := &recorder{}
	p := newPlatform(t, net, 1, rec)
	refused := func(name string, err error) {
		t.Helper()
		if !errors.Is(err, order.ErrInvalid) {
			t.Fatalf("%s: got %v, want an error wrapping order.ErrInvalid", name, err)
		}
		if rec.inits != 0 || len(rec.ticks) != 0 || len(rec.orders) != 0 || p.Clock() != 0 || p.Metrics().Total != 0 {
			t.Fatalf("%s: a refused order moved state: inits %d ticks %v orders %v clock %v total %d",
				name, rec.inits, rec.ticks, rec.orders, p.Clock(), p.Metrics().Total)
		}
	}
	for name, corrupt := range map[string]func(*order.Order){
		"release +Inf":       func(o *order.Order) { o.Release, o.Deadline = math.Inf(1), math.Inf(1) },
		"deadline NaN":       func(o *order.Order) { o.Deadline = math.NaN() },
		"pickup past range":  func(o *order.Order) { o.Pickup = geo.NodeID(net.NumNodes()) },
		"dropoff negative":   func(o *order.Order) { o.Dropoff = -1 },
		"riders zero":        func(o *order.Order) { o.Riders = 0 },
		"deadline < release": func(o *order.Order) { o.Deadline = o.Release - 1 },
	} {
		o := mkOrder(net, 9, 25)
		corrupt(o)
		refused(name, p.Submit(o))
		// Replay checks the whole batch first: the valid order ahead of
		// the bad one is not delivered either.
		_, err := p.Replay([]*order.Order{mkOrder(net, 8, 5), o})
		refused(name+" (replay)", err)
	}
	refused("nil", p.Submit(nil))
	_, err := p.Replay([]*order.Order{mkOrder(net, 8, 5), nil})
	refused("nil (replay)", err)
	if err := p.Submit(mkOrder(net, 1, 25)); err != nil {
		t.Fatalf("valid order after the refusals: %v", err)
	}
	if len(rec.ticks) != 2 || p.Metrics().Total != 1 {
		t.Fatalf("valid order after the refusals: ticks %v total %d", rec.ticks, p.Metrics().Total)
	}
}

// TestStreamNegativeRelease pins a legacy admission the redesign must not
// lose: the batch runner simulated orders released before t=0 (the clock
// simply started there), so the monotonicity check only applies once an
// event has actually been delivered.
func TestStreamNegativeRelease(t *testing.T) {
	net := testNet()
	o := mkOrder(net, 1, 0)
	o.Release, o.Deadline = -5, o.Deadline-5
	rec := &recorder{}
	m := replay(t, newPlatform(t, net, 1, rec), []*order.Order{o})
	if len(rec.orders) != 1 || rec.orders[0] != -5 {
		t.Fatalf("order deliveries = %v", rec.orders)
	}
	if m.Total != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestRunnerTickCadenceAndOrdering: Replay delivers orders sorted by
// release, fires every tick due before each, and drains to the horizon.
func TestRunnerTickCadenceAndOrdering(t *testing.T) {
	net := testNet()
	orders := []*order.Order{mkOrder(net, 1, 25), mkOrder(net, 2, 5), mkOrder(net, 3, 47)}
	rec := &recorder{}
	m := replay(t, newPlatform(t, net, 2, rec), orders)
	if rec.inits != 1 {
		t.Fatalf("inits = %d", rec.inits)
	}
	want := []float64{5, 25, 47}
	for i, w := range want {
		if rec.orders[i] != w {
			t.Fatalf("order times = %v", rec.orders)
		}
	}
	// Ticks at 10,20 before order@25, 30,40 before @47, then drain to the
	// horizon (max deadline).
	if len(rec.ticks) < 4 {
		t.Fatalf("ticks = %v", rec.ticks)
	}
	for i, tk := range rec.ticks {
		if tk != float64(10*(i+1)) {
			t.Fatalf("tick %d = %v", i, tk)
		}
	}
	if m.Total != 3 || m.Rejected != 3 {
		t.Fatalf("metrics = %+v", m)
	}
	if rec.finish == 0 {
		t.Fatal("finish not called")
	}
}

// TestRunnerLeavesCallerOrdersUntouched pins Replay's ownership contract:
// admission-time enrichment (DirectCost) happens on the platform's private
// clones, never through the caller's pointers — while the simulation itself
// still sees the enriched value (the rejection penalty is 10 × the true
// direct cost, not zero).
func TestRunnerLeavesCallerOrdersUntouched(t *testing.T) {
	net := testNet()
	o := mkOrder(net, 1, 0)
	o.DirectCost = 0
	before := *o
	m := replay(t, newPlatform(t, net, 1, &recorder{}), []*order.Order{o})
	if *o != before {
		t.Fatalf("caller's order mutated: %+v -> %+v", before, *o)
	}
	if want := 10 * net.Cost(o.Pickup, o.Dropoff); m.RejectUnified != want {
		t.Fatalf("admission enrichment lost: RejectUnified = %v, want %v", m.RejectUnified, want)
	}
}

// TestRunnerMeasuresTime: WithMeasuredTime times the algorithm's hooks into
// DecisionSeconds, and nothing else does.
func TestRunnerMeasuresTime(t *testing.T) {
	net := testNet()
	m := replay(t, newPlatform(t, net, 1, &recorder{}, platform.WithMeasuredTime(true)), []*order.Order{mkOrder(net, 1, 0)})
	if m.DecisionSeconds <= 0 {
		t.Fatal("decision time not measured")
	}
	m2 := replay(t, newPlatform(t, net, 1, &recorder{}), []*order.Order{mkOrder(net, 1, 0)})
	if m2.DecisionSeconds != 0 {
		t.Fatal("an untimed run measured decision time")
	}
}

// TestObserversFire: an observer registered on the Env sees every outcome
// the metrics count.
func TestObserversFire(t *testing.T) {
	net := testNet()
	rec := &recorder{serveIt: true}
	p := newPlatform(t, net, 3, rec)
	var served, rejected int
	p.Env().Observe(func(ev sim.Event) {
		switch ev := ev.(type) {
		case sim.GroupDispatched:
			served += ev.Size()
		case sim.OrderRejected:
			rejected++
		}
	})
	m := replay(t, p, []*order.Order{mkOrder(net, 1, 0), mkOrder(net, 2, 1)})
	if served != m.Served || rejected != m.Rejected {
		t.Fatalf("observers saw %d/%d, metrics %d/%d", served, rejected, m.Served, m.Rejected)
	}
	if served+rejected != 2 {
		t.Fatalf("total outcomes %d", served+rejected)
	}
}
