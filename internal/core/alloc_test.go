package core

import (
	"testing"

	"watter/internal/order"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// hold never volunteers a dispatch.
type hold struct{}

func (hold) Name() string                                                  { return "hold" }
func (hold) ShouldDispatch([]*order.Order, float64, float64, float64) bool { return false }

// allocFixture is a framework over a 20x20 GridCity (10 s blocks) with
// idle workers at the corner the corridor orders start from.
func allocFixture(decide strategy.Decision) (*Framework, *sim.Env, *roadnet.GridCity) {
	net := roadnet.NewGridCity(20, 20, 100, 10)
	var workers []*order.Worker
	for i := 1; i <= 3; i++ {
		workers = append(workers, &order.Worker{ID: i, Loc: net.Node(0, 0), Capacity: 4})
	}
	env := sim.NewEnv(net, workers, sim.DefaultConfig())
	fw := New(decide, pool.DefaultOptions())
	fw.Init(env)
	return fw, env, net
}

// corridorOrder is released at 0 on the x axis, x blocks from the corner,
// with a generous deadline and the given wait limit.
func corridorOrder(net *roadnet.GridCity, id, x int, wait float64) *order.Order {
	pu, do := net.Node(x, 0), net.Node(x+8, 0)
	direct := net.Cost(pu, do)
	return &order.Order{ID: id, Pickup: pu, Dropoff: do, Riders: 1,
		Deadline: 4 * direct, WaitLimit: wait, DirectCost: direct}
}

// resetWorkers puts every worker back, idle, at the corner.
func resetWorkers(env *sim.Env, net *roadnet.GridCity) {
	for _, w := range env.Workers {
		w.Loc, w.FreeAt = net.Node(0, 0), 0
		env.WIndex.Update(w)
	}
}

// TestTickAllocations pins what the periodic check costs the allocator:
// a check that reads every pooled order's best group and holds them all
// plans no route and allocates nothing, and a dispatch — a shared group
// the strategy releases, or a timed-out order served alone — is planned
// into the framework's kept group and allocates nothing either, insert
// and removal included.
func TestTickAllocations(t *testing.T) {
	t.Run("hold", func(t *testing.T) {
		fw, env, net := allocFixture(hold{})
		for id := 1; id <= 5; id++ {
			fw.OnOrder(corridorOrder(net, id, id%3, 1e6), 0)
		}
		fw.OnTick(10)
		held := 0
		for id := 1; id <= 5; id++ {
			if _, ok := fw.pool.Best(id); ok {
				held++
			}
		}
		if held == 0 || fw.pool.Len() != 5 {
			t.Fatalf("%d of %d pooled orders hold a best group; test is vacuous", held, fw.pool.Len())
		}
		before := fw.pool.CacheStats().PlansMaterialized
		if n := testing.AllocsPerRun(100, func() { fw.OnTick(10) }); n != 0 {
			t.Errorf("a check that holds every group allocates %v times, want 0", n)
		}
		if fw.pool.Len() != 5 || env.Metrics.Served != 0 || fw.pool.CacheStats().PlansMaterialized != before {
			t.Fatalf("the held check dispatched or planned: %d pooled, %d served", fw.pool.Len(), env.Metrics.Served)
		}
	})
	t.Run("shared", func(t *testing.T) {
		fw, env, net := allocFixture(strategy.Online{})
		a, b := corridorOrder(net, 1, 0, 1e6), corridorOrder(net, 2, 1, 1e6)
		cycle := func() {
			fw.OnOrder(a, 0)
			fw.OnOrder(b, 0)
			fw.OnTick(10)
			resetWorkers(env, net)
		}
		cycle()
		if env.Metrics.GroupSizeHist[2] != 1 {
			t.Fatalf("the pair was not dispatched as a group: %v", env.Metrics.GroupSizeHist)
		}
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("a shared dispatch cycle allocates %v times, want 0", n)
		}
		if env.Metrics.GroupSizeHist[2] != 102 || fw.pool.Len() != 0 {
			t.Fatalf("%d pairs dispatched, %d orders left pooled, want 102 and 0", env.Metrics.GroupSizeHist[2], fw.pool.Len())
		}
	})
	t.Run("solo", func(t *testing.T) {
		fw, env, net := allocFixture(hold{})
		o := corridorOrder(net, 1, 0, 0)
		cycle := func() {
			fw.OnOrder(o, 0)
			fw.OnTick(10)
			resetWorkers(env, net)
		}
		cycle()
		if env.Metrics.GroupSizeHist[1] != 1 {
			t.Fatalf("the timed-out order was not served alone: %v", env.Metrics.GroupSizeHist)
		}
		if n := testing.AllocsPerRun(100, cycle); n != 0 {
			t.Errorf("a solo dispatch cycle allocates %v times, want 0", n)
		}
		if env.Metrics.GroupSizeHist[1] != 102 || fw.pool.Len() != 0 {
			t.Fatalf("%d solo dispatches, %d orders left pooled, want 102 and 0", env.Metrics.GroupSizeHist[1], fw.pool.Len())
		}
	})
}
