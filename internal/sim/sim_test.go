package sim

import (
	"math"
	"testing"

	"watter/internal/order"
	"watter/internal/roadnet"
)

func newTestEnv(m int) (*Env, *roadnet.GridCity) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	var workers []*order.Worker
	for i := 0; i < m; i++ {
		workers = append(workers, &order.Worker{ID: i + 1, Loc: net.Node(i%10, (i*3)%10), Capacity: 4})
	}
	return NewEnv(net, workers, DefaultConfig()), net
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

func TestMetricsDerivations(t *testing.T) {
	m := Metrics{
		Total: 10, Served: 8, Rejected: 2,
		ServedExtra: 800, PenaltySum: 200,
		WorkerTravel: 4000, RejectUnified: 1000,
		DecisionSeconds: 0.5,
	}
	if m.ExtraTime() != 1000 {
		t.Fatalf("Φ = %v", m.ExtraTime())
	}
	if m.UnifiedCost() != 5000 {
		t.Fatalf("UC = %v", m.UnifiedCost())
	}
	if m.ServiceRate() != 0.8 {
		t.Fatalf("rate = %v", m.ServiceRate())
	}
	if m.RunningTime() != 0.05 {
		t.Fatalf("runtime = %v", m.RunningTime())
	}
	var zero Metrics
	if zero.ServiceRate() != 0 || zero.RunningTime() != 0 || zero.AvgGroupSize() != 0 {
		t.Fatal("zero-value metrics must not divide by zero")
	}
}

func TestDispatchGroupAccounting(t *testing.T) {
	env, net := newTestEnv(1)
	o := mkOrder(net, 1, 0)
	plan, ok := env.Planner.PlanGroup([]*order.Order{o}, 20, 4)
	if !ok {
		t.Fatal("plan failed")
	}
	g := &order.Group{Orders: []*order.Order{o}, Plan: plan}
	if !env.DispatchGroup(g, 20) {
		t.Fatal("dispatch failed")
	}
	w := env.Workers[0]
	approach := net.Cost(net.Node(0, 0), o.Pickup) // worker 1 starts at (0,0)
	if math.Abs(w.TravelCost-(approach+plan.Cost)) > 1e-9 {
		t.Fatalf("travel = %v", w.TravelCost)
	}
	if w.FreeAt != 20+approach+plan.Cost {
		t.Fatalf("freeAt = %v", w.FreeAt)
	}
	if w.Loc != o.Dropoff {
		t.Fatalf("loc = %v", w.Loc)
	}
	mt := env.Metrics
	if mt.Served != 1 {
		t.Fatalf("served = %d", mt.Served)
	}
	// response 20, detour 0 for a solo straight-line trip.
	if math.Abs(mt.ResponseSum-20) > 1e-9 || math.Abs(mt.DetourSum) > 1e-9 {
		t.Fatalf("response %v detour %v", mt.ResponseSum, mt.DetourSum)
	}
	if mt.GroupSizeHist[1] != 1 {
		t.Fatalf("hist = %v", mt.GroupSizeHist)
	}
	// Worker is now busy: a second dispatch must fail.
	if env.DispatchGroup(g, 21) {
		t.Fatal("busy worker accepted a second group")
	}
}

func TestDispatchGroupCapacityFilter(t *testing.T) {
	env, net := newTestEnv(1)
	env.Workers[0].Capacity = 1
	o := mkOrder(net, 1, 0)
	o.Riders = 2
	plan, _ := env.Planner.PlanGroup([]*order.Order{o}, 0, 4)
	g := &order.Group{Orders: []*order.Order{o}, Plan: plan}
	if env.DispatchGroup(g, 0) {
		t.Fatal("worker with 1 seat accepted 2 riders")
	}
}

func TestRejectAccounting(t *testing.T) {
	env, net := newTestEnv(0)
	o := mkOrder(net, 1, 0)
	env.Reject(o, 100)
	mt := env.Metrics
	if mt.Rejected != 1 {
		t.Fatalf("rejected = %d", mt.Rejected)
	}
	if math.Abs(mt.PenaltySum-o.Penalty()) > 1e-9 {
		t.Fatalf("penalty = %v", mt.PenaltySum)
	}
	if math.Abs(mt.RejectUnified-10*o.DirectCost) > 1e-9 {
		t.Fatalf("unified reject = %v", mt.RejectUnified)
	}
}

// recorder is a minimal Algorithm capturing hook invocations.
type recorder struct {
	inits   int
	orders  []float64
	ticks   []float64
	finish  float64
	env     *Env
	serveIt bool
}

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) Init(env *Env) {
	r.inits++
	r.env = env
}
func (r *recorder) OnOrder(o *order.Order, now float64) {
	r.orders = append(r.orders, now)
	if r.serveIt {
		plan, ok := r.env.Planner.PlanGroup([]*order.Order{o}, now, 4)
		if ok {
			g := &order.Group{Orders: []*order.Order{o}, Plan: plan}
			if !r.env.DispatchGroup(g, now) {
				r.env.Reject(o, now)
			}
		} else {
			r.env.Reject(o, now)
		}
	} else {
		r.env.Reject(o, now)
	}
}
func (r *recorder) OnTick(now float64) { r.ticks = append(r.ticks, now) }
func (r *recorder) Finish(now float64) { r.finish = now }

func TestRunnerTickCadenceAndOrdering(t *testing.T) {
	env, net := newTestEnv(2)
	orders := []*order.Order{mkOrder(net, 1, 25), mkOrder(net, 2, 5), mkOrder(net, 3, 47)}
	rec := &recorder{}
	m := Run(env, rec, orders, RunOptions{TickEvery: 10})
	if rec.inits != 1 {
		t.Fatalf("inits = %d", rec.inits)
	}
	// Orders must arrive sorted by release.
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

// TestRunnerLeavesCallerOrdersUntouched pins the batch adapter's ownership
// contract: admission-time enrichment (DirectCost) happens on the stream's
// private clones, never through the caller's pointers — while the
// simulation itself still sees the enriched value (the rejection penalty
// is 10 × the true direct cost, not zero).
func TestRunnerLeavesCallerOrdersUntouched(t *testing.T) {
	env, net := newTestEnv(1)
	o := mkOrder(net, 1, 0)
	o.DirectCost = 0
	before := *o
	m := Run(env, &recorder{}, []*order.Order{o}, RunOptions{TickEvery: 10})
	if *o != before {
		t.Fatalf("caller's order mutated: %+v -> %+v", before, *o)
	}
	if want := 10 * net.Cost(o.Pickup, o.Dropoff); m.RejectUnified != want {
		t.Fatalf("admission enrichment lost: RejectUnified = %v, want %v", m.RejectUnified, want)
	}
}

func TestRunnerMeasuresTime(t *testing.T) {
	env, net := newTestEnv(1)
	m := Run(env, &recorder{}, []*order.Order{mkOrder(net, 1, 0)}, RunOptions{TickEvery: 10, MeasureTime: true})
	if m.DecisionSeconds <= 0 {
		t.Fatal("decision time not measured")
	}
	env2, _ := newTestEnv(1)
	m2 := Run(env2, &recorder{}, []*order.Order{mkOrder(net, 1, 0)}, RunOptions{TickEvery: 10})
	if m2.DecisionSeconds != 0 {
		t.Fatal("timing must be off by default")
	}
}

func TestObserversFire(t *testing.T) {
	env, net := newTestEnv(3)
	var served, rejected int
	env.Observe(func(ev Event) {
		switch ev := ev.(type) {
		case GroupDispatched:
			served += ev.Size()
		case OrderRejected:
			rejected++
		}
	})
	rec := &recorder{serveIt: true}
	orders := []*order.Order{mkOrder(net, 1, 0), mkOrder(net, 2, 1)}
	m := Run(env, rec, orders, RunOptions{TickEvery: 10})
	if served != m.Served || rejected != m.Rejected {
		t.Fatalf("observers saw %d/%d, metrics %d/%d", served, rejected, m.Served, m.Rejected)
	}
	if served+rejected != 2 {
		t.Fatalf("total outcomes %d", served+rejected)
	}
}

func TestDispatchGroupWith(t *testing.T) {
	env, net := newTestEnv(2)
	o := mkOrder(net, 1, 0)
	w := env.Workers[1]
	plan, ok := env.Planner.PlanGroupFrom([]*order.Order{o}, 0, 4, w.Loc)
	if !ok {
		t.Fatal("anchored plan failed")
	}
	g := &order.Group{Orders: []*order.Order{o}, Plan: plan}
	if !env.DispatchGroupWith(w, g, 0) {
		t.Fatal("dispatch-with failed")
	}
	if math.Abs(w.TravelCost-plan.Cost) > 1e-9 {
		t.Fatalf("anchored travel = %v, want %v", w.TravelCost, plan.Cost)
	}
	// Busy specific worker refuses.
	if env.DispatchGroupWith(w, g, 1) {
		t.Fatal("busy worker accepted")
	}
}
