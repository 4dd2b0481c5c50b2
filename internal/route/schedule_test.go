package route

import (
	"math"
	"testing"

	"watter/internal/order"
	"watter/internal/roadnet"
)

func TestEvaluateSimpleSchedule(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	o := mk(net, 1, net.Node(0, 0), net.Node(4, 0), 0, 3.0)
	stops := []order.Stop{
		{Node: o.Pickup, Kind: order.PickupStop, OrderID: 1, Riders: 1},
		{Node: o.Dropoff, Kind: order.DropoffStop, OrderID: 1, Riders: 1},
	}
	orders := map[int]*order.Order{1: o}
	times, travel, ok := p.Evaluate(stops, orders, net.Node(0, 0), 10, 4, 0)
	if !ok {
		t.Fatal("evaluate failed")
	}
	if times[0] != 10 || math.Abs(times[1]-50) > 1e-9 {
		t.Fatalf("times = %v", times)
	}
	if math.Abs(travel-40) > 1e-9 {
		t.Fatalf("travel = %v", travel)
	}
}

func TestEvaluateRejectsViolations(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	o := mk(net, 1, net.Node(0, 0), net.Node(4, 0), 0, 1.2)
	orders := map[int]*order.Order{1: o}
	pick := order.Stop{Node: o.Pickup, Kind: order.PickupStop, OrderID: 1, Riders: 1}
	drop := order.Stop{Node: o.Dropoff, Kind: order.DropoffStop, OrderID: 1, Riders: 1}

	// Deadline violation: start far away so the dropoff is late.
	if _, _, ok := p.Evaluate([]order.Stop{pick, drop}, orders, net.Node(19, 19), 0, 4, 0); ok {
		t.Fatal("late schedule must be infeasible")
	}
	// Capacity violation.
	big := *o
	big.Riders = 9
	bp := pick
	bp.Riders = 9
	if _, _, ok := p.Evaluate([]order.Stop{bp}, map[int]*order.Order{1: &big}, o.Pickup, 0, 4, 0); ok {
		t.Fatal("overloaded pickup must be infeasible")
	}
	// Dropoff without pickup and nothing onboard.
	if _, _, ok := p.Evaluate([]order.Stop{drop}, orders, o.Pickup, 0, 4, 0); ok {
		t.Fatal("dropoff of absent rider must be infeasible")
	}
	// Dropoff of an onboard rider is fine.
	if _, _, ok := p.Evaluate([]order.Stop{drop}, orders, o.Pickup, 0, 4, 1); !ok {
		t.Fatal("dropoff of onboard rider must be feasible")
	}
	// Unknown order id.
	if _, _, ok := p.Evaluate([]order.Stop{pick, drop}, map[int]*order.Order{}, o.Pickup, 0, 4, 0); ok {
		t.Fatal("unknown order must be infeasible")
	}
}

func TestInsertOrderIntoEmptySchedule(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	o := mk(net, 1, net.Node(2, 0), net.Node(6, 0), 0, 3.0)
	sch := &Schedule{}
	got, delta, ok := p.InsertOrder(sch, map[int]*order.Order{}, o, net.Node(0, 0), 0, 4, 0)
	if !ok {
		t.Fatal("insert into empty schedule failed")
	}
	if len(got.Stops) != 2 {
		t.Fatalf("stops = %v", got.Stops)
	}
	// Travel = 2 blocks to pickup + 4 blocks to dropoff = 60s.
	if math.Abs(delta-60) > 1e-9 {
		t.Fatalf("delta = %v", delta)
	}
}

func TestInsertOrderPrefersCheapestPosition(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	// Existing passenger travels (0,0)->(8,0); new order (2,0)->(5,0) lies
	// entirely inside that corridor: optimal insertion adds 0 extra travel.
	a := mk(net, 1, net.Node(0, 0), net.Node(8, 0), 0, 3.0)
	b := mk(net, 2, net.Node(2, 0), net.Node(5, 0), 0, 3.0)
	orders := map[int]*order.Order{1: a}
	sch := &Schedule{
		Stops: []order.Stop{
			{Node: a.Pickup, Kind: order.PickupStop, OrderID: 1, Riders: 1},
			{Node: a.Dropoff, Kind: order.DropoffStop, OrderID: 1, Riders: 1},
		},
		Times: []float64{0, 80},
	}
	got, delta, ok := p.InsertOrder(sch, orders, b, net.Node(0, 0), 0, 4, 0)
	if !ok {
		t.Fatal("insert failed")
	}
	if math.Abs(delta) > 1e-9 {
		t.Fatalf("corridor insertion should be free, delta = %v", delta)
	}
	if len(got.Stops) != 4 {
		t.Fatalf("stops = %v", got.Stops)
	}
}

func TestInsertOrderRespectsExistingDeadlines(t *testing.T) {
	net := testCity()
	p := NewPlanner(net)
	// Existing passenger has zero slack; any detour breaks it.
	a := mk(net, 1, net.Node(0, 0), net.Node(8, 0), 0, 1.0)
	// bTight (deadline 150 s) cannot be appended after a's dropoff
	// (arrival 210 s) and any interior insertion breaks a's zero slack.
	bTight := mk(net, 2, net.Node(4, 6), net.Node(4, 9), 0, 5.0)
	// bPatient (deadline 240 s) survives being appended at the end.
	bPatient := mk(net, 3, net.Node(4, 6), net.Node(4, 9), 0, 8.0)
	orders := map[int]*order.Order{1: a}
	sch := &Schedule{
		Stops: []order.Stop{
			{Node: a.Pickup, Kind: order.PickupStop, OrderID: 1, Riders: 1},
			{Node: a.Dropoff, Kind: order.DropoffStop, OrderID: 1, Riders: 1},
		},
		Times: []float64{0, 80},
	}
	if _, _, ok := p.InsertOrder(sch, orders, bTight, net.Node(0, 0), 0, 4, 0); ok {
		t.Fatal("insertion breaking a deadline on every position must fail")
	}
	got, _, ok := p.InsertOrder(sch, orders, bPatient, net.Node(0, 0), 0, 4, 0)
	if !ok {
		t.Fatal("appending after dropoff should work for a patient order")
	}
	// The only feasible positions are after a's dropoff.
	if got.Stops[0].OrderID != 1 || got.Stops[1].OrderID != 1 {
		t.Fatalf("a's stops must stay first: %+v", got.Stops)
	}
}

func TestScheduleEnd(t *testing.T) {
	net := testCity()
	sch := &Schedule{
		Stops: []order.Stop{{Node: net.Node(3, 3), Kind: order.DropoffStop, OrderID: 1}},
		Times: []float64{120},
	}
	loc, tm := sch.End(net.Node(0, 0), 5)
	if loc != net.Node(3, 3) || tm != 120 {
		t.Fatalf("End = %v,%v", loc, tm)
	}
	empty := &Schedule{}
	loc, tm = empty.End(net.Node(1, 1), 7)
	if loc != net.Node(1, 1) || tm != 7 {
		t.Fatalf("empty End = %v,%v", loc, tm)
	}
}

var _ = roadnet.Network(nil) // keep import when tests shrink
