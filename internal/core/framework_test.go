package core

import (
	"math"
	"math/rand"
	"testing"

	"watter/internal/baseline"
	"watter/internal/order"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// workload builds a deterministic synthetic order stream with hotspot
// structure so sharing opportunities exist.
func workload(net *roadnet.GridCity, n int, seed int64, tau float64) []*order.Order {
	rng := rand.New(rand.NewSource(seed))
	orders := make([]*order.Order, 0, n)
	for i := 0; i < n; i++ {
		// Half the demand flows from a hotspot quarter to another.
		var px, py, dx, dy int
		if rng.Intn(2) == 0 {
			px, py = rng.Intn(6), rng.Intn(6)
			dx, dy = 12+rng.Intn(6), 12+rng.Intn(6)
		} else {
			px, py = rng.Intn(net.W), rng.Intn(net.H)
			dx, dy = rng.Intn(net.W), rng.Intn(net.H)
		}
		pu, do := net.Node(px, py), net.Node(dx, dy)
		if pu == do {
			continue
		}
		direct := net.Cost(pu, do)
		release := float64(rng.Intn(600))
		orders = append(orders, &order.Order{
			ID: i + 1, Pickup: pu, Dropoff: do, Riders: 1,
			Release: release, Deadline: release + tau*direct,
			WaitLimit: 0.8 * direct, DirectCost: direct,
		})
	}
	return orders
}

func fleet(net *roadnet.GridCity, m int, seed int64) []*order.Worker {
	rng := rand.New(rand.NewSource(seed))
	ws := make([]*order.Worker, m)
	for i := range ws {
		ws[i] = &order.Worker{
			ID:       i + 1,
			Loc:      net.Node(rng.Intn(net.W), rng.Intn(net.H)),
			Capacity: 2 + rng.Intn(3),
		}
	}
	return ws
}

func runAlg(t *testing.T, alg sim.Algorithm, n, m int, tau float64) *sim.Metrics {
	t.Helper()
	net := roadnet.NewGridCity(20, 20, 100, 10)
	orders := workload(net, n, 7, tau)
	env := sim.NewEnv(net, fleet(net, m, 11), sim.DefaultConfig())
	opts := sim.DefaultRunOptions()
	opts.MeasureTime = false
	metrics := sim.Run(env, alg, orders, opts)
	assertAccounting(t, metrics, len(orders))
	return metrics
}

// assertAccounting: every order is either served or rejected, exactly once.
func assertAccounting(t *testing.T, m *sim.Metrics, total int) {
	t.Helper()
	if m.Served+m.Rejected != total {
		t.Fatalf("accounting broken: served %d + rejected %d != total %d",
			m.Served, m.Rejected, total)
	}
	if m.ServedExtra < 0 || m.PenaltySum < 0 || m.WorkerTravel < 0 {
		t.Fatalf("negative metric: %+v", m)
	}
}

func TestFrameworkOnlineServesEverythingWithBigFleet(t *testing.T) {
	m := runAlg(t, New(strategy.Online{}, pool.DefaultOptions()), 120, 60, 2.0)
	if m.ServiceRate() < 0.9 {
		t.Fatalf("online with abundant workers should serve nearly all: rate %.3f", m.ServiceRate())
	}
}

func TestFrameworkTimeoutFormsMoreGroups(t *testing.T) {
	// tau = 3.0: holding a group to its wait limit consumes ~0.8*direct of
	// deadline slack, and dispatch must still fit the worker's approach leg
	// inside what remains. Tighter deadlines would kill held groups before
	// the timeout strategy gets to release them.
	online := runAlg(t, New(strategy.Online{}, pool.DefaultOptions()), 200, 12, 3.0)
	timeout := runAlg(t, New(strategy.Timeout{}, pool.DefaultOptions()), 200, 12, 3.0)
	shared := func(m *sim.Metrics) int {
		s := 0
		for k := 2; k < len(m.GroupSizeHist); k++ {
			s += m.GroupSizeHist[k]
		}
		return s
	}
	if shared(timeout) <= shared(online) {
		t.Fatalf("timeout should form at least as many shared groups: timeout %d vs online %d",
			shared(timeout), shared(online))
	}
}

func TestFrameworkThresholdBetweenExtremes(t *testing.T) {
	// A moderate constant threshold must produce response times between
	// online (immediate) and timeout (max wait).
	online := runAlg(t, New(strategy.Online{}, pool.DefaultOptions()), 150, 20, 2.0)
	timeout := runAlg(t, New(strategy.Timeout{}, pool.DefaultOptions()), 150, 20, 2.0)
	thr := runAlg(t, New(&strategy.Threshold{Source: strategy.ConstantThreshold(120)}, pool.DefaultOptions()), 150, 20, 2.0)
	avgResp := func(m *sim.Metrics) float64 {
		if m.Served == 0 {
			return 0
		}
		return m.ResponseSum / float64(m.Served)
	}
	if avgResp(online) > avgResp(timeout) {
		t.Fatalf("online resp %.1f should not exceed timeout resp %.1f",
			avgResp(online), avgResp(timeout))
	}
	if avgResp(thr) < avgResp(online)-1e-9 {
		t.Fatalf("threshold resp %.1f below online resp %.1f", avgResp(thr), avgResp(online))
	}
}

func TestFrameworkRejectsImpossibleOrder(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	o := &order.Order{
		ID: 1, Pickup: net.Node(0, 0), Dropoff: net.Node(5, 0), Riders: 1,
		Release: 0, Deadline: 10, // direct is 50s: hopeless
		WaitLimit: 10, DirectCost: 50,
	}
	env := sim.NewEnv(net, fleet(roadnet.NewGridCity(10, 10, 100, 10), 3, 1), sim.DefaultConfig())
	opts := sim.DefaultRunOptions()
	opts.MeasureTime = false
	m := sim.Run(env, New(strategy.Online{}, pool.DefaultOptions()), []*order.Order{o}, opts)
	if m.Rejected != 1 || m.Served != 0 {
		t.Fatalf("impossible order must be rejected: %+v", m)
	}
	if math.Abs(m.PenaltySum-o.Penalty()) > 1e-9 {
		t.Fatalf("penalty %v, want %v", m.PenaltySum, o.Penalty())
	}
}

func TestFrameworkNoWorkersRejectsAll(t *testing.T) {
	net := roadnet.NewGridCity(10, 10, 100, 10)
	orders := workload(roadnet.NewGridCity(20, 20, 100, 10), 30, 3, 2.0)
	// Re-target orders to the smaller net to keep nodes valid.
	for _, o := range orders {
		o.Pickup = o.Pickup % 100
		o.Dropoff = o.Dropoff % 100
		if o.Pickup == o.Dropoff {
			o.Dropoff = (o.Dropoff + 1) % 100
		}
		o.DirectCost = net.Cost(o.Pickup, o.Dropoff)
		o.Deadline = o.Release + 2*o.DirectCost
		o.WaitLimit = 0.8 * o.DirectCost
	}
	env := sim.NewEnv(net, nil, sim.DefaultConfig())
	opts := sim.DefaultRunOptions()
	opts.MeasureTime = false
	m := sim.Run(env, New(strategy.Online{}, pool.DefaultOptions()), orders, opts)
	if m.Served != 0 || m.Rejected != len(orders) {
		t.Fatalf("no workers: %+v", m)
	}
}

func TestGDPBaselineRuns(t *testing.T) {
	m := runAlg(t, &baseline.GDP{}, 150, 20, 2.0)
	if m.ServiceRate() < 0.5 {
		t.Fatalf("GDP service rate suspiciously low: %.3f", m.ServiceRate())
	}
}

func TestGASBaselineRuns(t *testing.T) {
	m := runAlg(t, &baseline.GAS{}, 120, 20, 2.0)
	if m.ServiceRate() < 0.4 {
		t.Fatalf("GAS service rate suspiciously low: %.3f", m.ServiceRate())
	}
	shared := 0
	for k := 2; k < len(m.GroupSizeHist); k++ {
		shared += m.GroupSizeHist[k]
	}
	if shared == 0 {
		t.Fatal("GAS never grouped orders despite hotspot workload")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *sim.Metrics {
		net := roadnet.NewGridCity(20, 20, 100, 10)
		orders := workload(net, 100, 13, 2.0)
		env := sim.NewEnv(net, fleet(net, 15, 5), sim.DefaultConfig())
		opts := sim.DefaultRunOptions()
		opts.MeasureTime = false
		return sim.Run(env, New(&strategy.Threshold{Source: strategy.ConstantThreshold(90)}, pool.DefaultOptions()), orders, opts)
	}
	a, b := run(), run()
	if a.Served != b.Served || a.Rejected != b.Rejected ||
		math.Abs(a.ServedExtra-b.ServedExtra) > 1e-6 ||
		math.Abs(a.WorkerTravel-b.WorkerTravel) > 1e-6 {
		t.Fatalf("nondeterministic runs:\n%v\n%v", a, b)
	}
}

func TestWorkersConserveTime(t *testing.T) {
	// A worker's accumulated travel cost can never exceed the horizon it
	// had available (FreeAt monotonicity sanity).
	net := roadnet.NewGridCity(20, 20, 100, 10)
	orders := workload(net, 120, 17, 2.0)
	workers := fleet(net, 10, 23)
	env := sim.NewEnv(net, workers, sim.DefaultConfig())
	opts := sim.DefaultRunOptions()
	opts.MeasureTime = false
	sim.Run(env, New(strategy.Online{}, pool.DefaultOptions()), orders, opts)
	var total float64
	for _, w := range workers {
		if w.TravelCost < 0 {
			t.Fatalf("negative travel for worker %d", w.ID)
		}
		total += w.TravelCost
	}
	if math.Abs(total-env.Metrics.WorkerTravel) > 1e-6 {
		t.Fatalf("fleet travel %v != metric %v", total, env.Metrics.WorkerTravel)
	}
}
