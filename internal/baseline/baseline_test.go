package baseline

import (
	"math"
	"math/rand"
	"testing"

	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/roadnet"
	"watter/internal/sim"
)

func testFleet(m int) ([]*order.Worker, *roadnet.GridCity) {
	net := roadnet.NewGridCity(20, 20, 100, 10)
	rng := rand.New(rand.NewSource(9))
	var workers []*order.Worker
	for i := 0; i < m; i++ {
		workers = append(workers, &order.Worker{
			ID: i + 1, Loc: net.Node(rng.Intn(20), rng.Intn(20)), Capacity: 4,
		})
	}
	return workers, net
}

// replay runs alg over orders on a platform at the paper's Δt = 10 s.
func replay(t *testing.T, net roadnet.Network, workers []*order.Worker, alg sim.Algorithm, orders []*order.Order) *sim.Metrics {
	t.Helper()
	p, err := platform.New(net, workers, platform.WithMeasuredTime(false), platform.WithAlgorithm(alg))
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Replay(orders)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func corridorOrders(net *roadnet.GridCity, n int, tau float64) []*order.Order {
	rng := rand.New(rand.NewSource(4))
	var out []*order.Order
	for i := 0; i < n; i++ {
		// Each burst of five shares one row, so its members overlap.
		y := (i / 5 * 3) % 20
		x := rng.Intn(4)
		pu, do := net.Node(x, y), net.Node(x+8, y)
		direct := net.Cost(pu, do)
		// Bursty arrivals: groups of five share one release instant, so
		// batch algorithms see co-pending orders.
		rel := float64(i / 5 * 30)
		out = append(out, &order.Order{
			ID: i + 1, Pickup: pu, Dropoff: do, Riders: 1,
			Release: rel, Deadline: rel + tau*direct, WaitLimit: 0.8 * direct,
			DirectCost: direct,
		})
	}
	return out
}

func TestGDPServesAndAccounts(t *testing.T) {
	workers, net := testFleet(12)
	orders := corridorOrders(net, 60, 2.0)
	m := replay(t, net, workers, &GDP{}, orders)
	if m.Served+m.Rejected != len(orders) {
		t.Fatalf("accounting: %+v", m)
	}
	// GDP rejects orders whose nearest feasible worker is farther than
	// the deadline slack allows — the paper's core GDP weakness — so the
	// bar here is only a sanity floor.
	if m.ServiceRate() < 0.3 {
		t.Fatalf("GDP rate %.2f even with a corridor workload", m.ServiceRate())
	}
	if m.WorkerTravel <= 0 {
		t.Fatal("no travel recorded")
	}
	// GDP responses are immediate.
	if m.ResponseSum != 0 {
		t.Fatalf("GDP response sum %v, want 0", m.ResponseSum)
	}
}

func TestGDPRejectsImpossible(t *testing.T) {
	workers, net := testFleet(1)
	o := &order.Order{
		ID: 1, Pickup: net.Node(0, 0), Dropoff: net.Node(10, 0), Riders: 1,
		Release: 0, Deadline: 1, WaitLimit: 1, DirectCost: 100,
	}
	m := replay(t, net, workers, &GDP{}, []*order.Order{o})
	if m.Rejected != 1 {
		t.Fatalf("hopeless order not rejected: %+v", m)
	}
}

func TestGDPSharesCapacity(t *testing.T) {
	// One worker, two overlapping corridor orders released together:
	// insertion must pool them onto the same vehicle.
	net := roadnet.NewGridCity(20, 20, 100, 10)
	w := &order.Worker{ID: 1, Loc: net.Node(0, 0), Capacity: 4}
	workers := []*order.Worker{w}
	a := &order.Order{ID: 1, Pickup: net.Node(1, 0), Dropoff: net.Node(9, 0), Riders: 1,
		Release: 0, Deadline: 0 + 2*80, WaitLimit: 64, DirectCost: 80}
	b := &order.Order{ID: 2, Pickup: net.Node(2, 0), Dropoff: net.Node(10, 0), Riders: 1,
		Release: 1, Deadline: 1 + 2*80, WaitLimit: 64, DirectCost: 80}
	m := replay(t, net, workers, &GDP{}, []*order.Order{a, b})
	if m.Served != 2 {
		t.Fatalf("served %d of 2 overlapping orders with one vehicle", m.Served)
	}
	// Shared service must cost less than two disjoint trips (2*(1+8)=180s
	// of travel if served back to back, ~110s shared).
	if m.WorkerTravel >= 180 {
		t.Fatalf("no sharing: travel %v", m.WorkerTravel)
	}
}

func TestGASBatchesAndGroups(t *testing.T) {
	workers, net := testFleet(10)
	orders := corridorOrders(net, 50, 2.0)
	m := replay(t, net, workers, &GAS{}, orders)
	if m.Served+m.Rejected != len(orders) {
		t.Fatalf("accounting: %+v", m)
	}
	shared := 0
	for k := 2; k < len(m.GroupSizeHist); k++ {
		shared += m.GroupSizeHist[k]
	}
	if shared == 0 {
		t.Fatal("GAS never grouped corridor orders")
	}
	// Batch responses are bounded below by nothing but above by deadline
	// slack; the mean must be positive (orders wait for the boundary).
	if m.Served > 0 && m.ResponseSum <= 0 {
		t.Fatal("GAS responses should be positive (batch waiting)")
	}
}

func TestGASCarryOverAndExpiry(t *testing.T) {
	// No workers: every order must eventually be rejected (not lost).
	net := roadnet.NewGridCity(10, 10, 100, 10)
	orders := corridorOrders(roadnet.NewGridCity(20, 20, 100, 10), 10, 1.5)
	for _, o := range orders {
		o.Pickup %= 100
		o.Dropoff %= 100
		if o.Pickup == o.Dropoff {
			o.Dropoff = (o.Dropoff + 1) % 100
		}
		o.DirectCost = net.Cost(o.Pickup, o.Dropoff)
		o.Deadline = o.Release + 1.5*o.DirectCost
	}
	m := replay(t, net, nil, &GAS{}, orders)
	if m.Rejected != len(orders) || m.Served != 0 {
		t.Fatalf("workerless GAS: %+v", m)
	}
}

func TestGASUtilityPrefersBiggerGroups(t *testing.T) {
	// One worker, three co-located identical orders in one batch: the max
	// utility group is all three together.
	net := roadnet.NewGridCity(20, 20, 100, 10)
	w := &order.Worker{ID: 1, Loc: net.Node(0, 0), Capacity: 4}
	workers := []*order.Worker{w}
	var orders []*order.Order
	for i := 0; i < 3; i++ {
		orders = append(orders, &order.Order{
			ID: i + 1, Pickup: net.Node(1, 0), Dropoff: net.Node(9, 0), Riders: 1,
			Release: float64(i), Deadline: float64(i) + 3*80, WaitLimit: 64, DirectCost: 80,
		})
	}
	m := replay(t, net, workers, &GAS{}, orders)
	if m.GroupSizeHist[3] != 1 {
		t.Fatalf("want one 3-group, hist %v", m.GroupSizeHist)
	}
}

func TestGDPDeterminism(t *testing.T) {
	run := func() *sim.Metrics {
		workers, net := testFleet(8)
		return replay(t, net, workers, &GDP{}, corridorOrders(net, 40, 1.8))
	}
	a, b := run(), run()
	if a.Served != b.Served || math.Abs(a.WorkerTravel-b.WorkerTravel) > 1e-6 {
		t.Fatalf("GDP nondeterministic: %v vs %v", a, b)
	}
}

func TestGASDeterminism(t *testing.T) {
	run := func() *sim.Metrics {
		workers, net := testFleet(8)
		return replay(t, net, workers, &GAS{}, corridorOrders(net, 40, 1.8))
	}
	a, b := run(), run()
	if a.Served != b.Served || math.Abs(a.WorkerTravel-b.WorkerTravel) > 1e-6 {
		t.Fatalf("GAS nondeterministic: %v vs %v", a, b)
	}
}
