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

// TestDispatchGroupWith: a worker-anchored plan (PlanGroupFrom, GAS's
// kind) already holds the approach leg, so it is booked on its worker with a
// zero approach.
func TestDispatchGroupWith(t *testing.T) {
	env, net := newTestEnv(2)
	o := mkOrder(net, 1, 0)
	w := env.Workers[1]
	plan, ok := env.Planner.PlanGroupFrom([]*order.Order{o}, 0, 4, w.Loc)
	if !ok {
		t.Fatal("anchored plan failed")
	}
	g := &order.Group{Orders: []*order.Order{o}, Plan: plan}
	if !env.DispatchGroupTo(w, 0, g, 0) {
		t.Fatal("dispatch-with failed")
	}
	if math.Abs(w.TravelCost-plan.Cost) > 1e-9 {
		t.Fatalf("anchored travel = %v, want %v", w.TravelCost, plan.Cost)
	}
	// Busy specific worker refuses.
	if env.DispatchGroupTo(w, 0, g, 1) {
		t.Fatal("busy worker accepted")
	}
}

// TestConfigValidate pins the platform-parameter validation that replaced
// NewEnv's silent defaulting.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("blessed defaults invalid: %v", err)
	}
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("zero-value config (previously coerced field by field) must not validate")
	}
	for name, mutate := range map[string]func(*Config){
		"zero grid":     func(c *Config) { c.GridN = 0 },
		"zero capacity": func(c *Config) { c.Capacity = 0 },
	} {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s must not validate", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewEnv must panic on invalid config")
		}
	}()
	env, _ := newTestEnv(1)
	NewEnv(env.Net, nil, Config{})
}
