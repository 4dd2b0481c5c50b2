package core_test

import (
	"testing"

	"watter/internal/core"
	"watter/internal/order"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/strategy"
)

// holdForever is a strategy that never volunteers a dispatch — isolating
// the framework's own last-call machinery.
type holdForever struct{}

func (holdForever) Name() string { return "hold" }
func (holdForever) ShouldDispatch([]*order.Order, float64, float64, float64) bool {
	return false
}

func lastCallEnv(workers int) ([]*order.Worker, *roadnet.GridCity) {
	net := roadnet.NewGridCity(20, 20, 100, 10)
	var ws []*order.Worker
	for i := 0; i < workers; i++ {
		// Workers start at the test orders' pickup corner: last-call
		// dispatches happen with near-zero deadline slack, so only a
		// zero-approach worker can physically serve them (dispatch now
		// verifies the approach leg against every member's deadline).
		ws = append(ws, &order.Worker{ID: i + 1, Loc: net.Node(0, 0), Capacity: 4})
	}
	return ws, net
}

func TestSoloLastCallBeatsDeadline(t *testing.T) {
	// One lonely order, strategy never dispatches: the framework's solo
	// last call must still serve it before the deadline dies — even
	// though its wait limit (0.8*direct) exceeds its slack (0.6*direct)
	// and is therefore unreachable.
	workers, net := lastCallEnv(1)
	direct := net.Cost(net.Node(0, 0), net.Node(8, 0))
	o := &order.Order{
		ID: 1, Pickup: net.Node(0, 0), Dropoff: net.Node(8, 0), Riders: 1,
		Release: 0, Deadline: 1.6 * direct, WaitLimit: 0.8 * direct,
		DirectCost: direct,
	}
	fw := core.New(holdForever{}, pool.DefaultOptions())
	m := replay(t, net, workers, fw, []*order.Order{o})
	if m.Served != 1 {
		t.Fatalf("solo last call failed: %+v", m)
	}
	// The order waited almost its whole slack: response in (slack-2*tick,
	// slack].
	slack := 0.6 * direct
	if m.ResponseSum <= slack-2*10 || m.ResponseSum > slack {
		t.Fatalf("response %v, want just under slack %v", m.ResponseSum, slack)
	}
}

func TestGroupLastCallFiresBeforeExpiry(t *testing.T) {
	// Two shareable orders, strategy never dispatches: the group's τg
	// passes before the solo deadline, so the framework must dispatch the
	// group at its last call rather than splitting it.
	workers, net := lastCallEnv(2)
	mkO := func(id int, x int) *order.Order {
		pu, do := net.Node(x, 0), net.Node(x+8, 0)
		direct := net.Cost(pu, do)
		return &order.Order{
			ID: id, Pickup: pu, Dropoff: do, Riders: 1,
			Release: 0, Deadline: 1.5 * direct, WaitLimit: 0.8 * direct,
			DirectCost: direct,
		}
	}
	fw := core.New(holdForever{}, pool.DefaultOptions())
	m := replay(t, net, workers, fw, []*order.Order{mkO(1, 0), mkO(2, 1)})
	if m.Served != 2 {
		t.Fatalf("group last call failed: %+v", m)
	}
	if m.GroupSizeHist[2] != 1 {
		t.Fatalf("expected one shared pair, hist %v", m.GroupSizeHist)
	}
}

func TestWaitLimitTriggersSoloWhenReachable(t *testing.T) {
	// With a generous deadline (tau=3), the wait limit (0.8*direct) is
	// reachable and must trigger solo service near t+eta, well before the
	// deadline-driven last call (slack = 2*direct).
	workers, net := lastCallEnv(1)
	direct := net.Cost(net.Node(0, 0), net.Node(8, 0))
	o := &order.Order{
		ID: 1, Pickup: net.Node(0, 0), Dropoff: net.Node(8, 0), Riders: 1,
		Release: 0, Deadline: 3 * direct, WaitLimit: 0.8 * direct,
		DirectCost: direct,
	}
	fw := core.New(holdForever{}, pool.DefaultOptions())
	m := replay(t, net, workers, fw, []*order.Order{o})
	if m.Served != 1 {
		t.Fatalf("wait-limit solo failed: %+v", m)
	}
	if m.ResponseSum <= o.WaitLimit-1e-9 || m.ResponseSum > o.WaitLimit+10+1e-9 {
		t.Fatalf("response %v, want in (eta, eta+tick]", m.ResponseSum)
	}
}

func TestOnlineDispatchesGroupAtFirstCheck(t *testing.T) {
	workers, net := lastCallEnv(2)
	mkO := func(id int, x int, rel float64) *order.Order {
		pu, do := net.Node(x, 0), net.Node(x+8, 0)
		direct := net.Cost(pu, do)
		return &order.Order{
			ID: id, Pickup: pu, Dropoff: do, Riders: 1,
			Release: rel, Deadline: rel + 3*direct, WaitLimit: 0.8 * direct,
			DirectCost: direct,
		}
	}
	fw := core.New(strategy.Online{}, pool.DefaultOptions())
	m := replay(t, net, workers, fw, []*order.Order{mkO(1, 0, 0), mkO(2, 1, 2)})
	if m.Served != 2 || m.GroupSizeHist[2] != 1 {
		t.Fatalf("online pair dispatch: %+v", m)
	}
	// Pair formed at t=2, first check at t=10: responses 10 and 8.
	if m.ResponseSum != 18 {
		t.Fatalf("responses sum %v, want 18", m.ResponseSum)
	}
}

func TestRejectOnExpiredArrival(t *testing.T) {
	workers, net := lastCallEnv(1)
	o := &order.Order{
		ID: 1, Pickup: net.Node(0, 0), Dropoff: net.Node(8, 0), Riders: 1,
		Release: 0, Deadline: 10, WaitLimit: 5, DirectCost: 80,
	}
	fw := core.New(strategy.Online{}, pool.DefaultOptions())
	m := replay(t, net, workers, fw, []*order.Order{o})
	if m.Rejected != 1 || m.Served != 0 {
		t.Fatalf("dead-on-arrival order: %+v", m)
	}
}
