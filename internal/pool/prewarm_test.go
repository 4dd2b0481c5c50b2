package pool

import (
	"math/rand"
	"sync"
	"testing"

	"watter/internal/gridindex"
	"watter/internal/order"
	"watter/internal/roadnet"
	"watter/internal/route"
)

// reverseExec runs tasks back to front — an adversarial scheduling the
// merge must be immune to (results are pure, the merge order is fixed).
type reverseExec struct{ ran int }

func (e *reverseExec) Run(tasks []func()) {
	for i := len(tasks) - 1; i >= 0; i-- {
		tasks[i]()
	}
	e.ran += len(tasks)
}

// goExec runs every task on its own goroutine, so under -race a task that
// writes anything but its own job races with its siblings.
type goExec struct{ ran int }

func (e *goExec) Run(tasks []func()) {
	var wg sync.WaitGroup
	for _, task := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task()
		}()
	}
	wg.Wait()
	e.ran += len(tasks)
}

// TestPrewarmPairsDecisionsIdentical drives two pools through the same
// random insert/expire/remove trace — one prewarming every insert, one
// inserting cold — and requires identical shareability edges and
// bit-identical best groups throughout. The warm pool's executor is either
// adversarially serial or concurrent; the concurrent arm is the prewarm's
// race gate (go test -race ./internal/pool).
func TestPrewarmPairsDecisionsIdentical(t *testing.T) {
	reverse, concurrent := &reverseExec{}, &goExec{}
	for _, tc := range []struct {
		name string
		exec Exec
		ran  *int
	}{
		{"reverse", reverse, &reverse.ran},
		{"goroutine-per-task", concurrent, &concurrent.ran},
	} {
		t.Run(tc.name, func(t *testing.T) { prewarmDecisionsIdentical(t, tc.exec, tc.ran) })
	}
}

func prewarmDecisionsIdentical(t *testing.T, exec Exec, ran *int) {
	warm, net, _ := testPool(2)
	cold, _, _ := testPool(2)
	rng := rand.New(rand.NewSource(5))

	now := 0.0
	for id := 1; id <= 120; id++ {
		now += rng.Float64() * 8
		pu := net.Node(rng.Intn(20), rng.Intn(20))
		do := net.Node(rng.Intn(20), rng.Intn(20))
		if pu == do {
			continue
		}
		o := mk(net, id, pu, do, now, 1.4+rng.Float64())
		warm.PrewarmPairs(o, now, exec)
		aw := warm.Insert(o, now)
		ac := cold.Insert(cloneOrder(o), now)
		if aw != ac {
			t.Fatalf("insert %d: warm added %d edges, cold %d", id, aw, ac)
		}
		if warm.cachedPlans() != cold.cachedPlans() || warm.legBlocks() != cold.legBlocks() {
			t.Fatalf("insert %d: warm pool holds %d entries and %d leg blocks, cold %d and %d (prewarmed negatives must not outlive the insert)",
				id, warm.cachedPlans(), warm.legBlocks(), cold.cachedPlans(), cold.legBlocks())
		}
		for _, r := range warm.live {
			if warm.nodes[r.slot].prewarm.ent != nil {
				t.Fatalf("insert %d: order %d still holds a prewarmed pair", id, r.id)
			}
		}
		if id%7 == 0 {
			for _, ex := range warm.ExpireEdges(now) {
				warm.Remove(ex, now)
			}
			for _, ex := range cold.ExpireEdges(now) {
				cold.Remove(ex, now)
			}
		}
		for _, oid := range warm.OrderIDs() {
			wg, we, wok := warm.BestGroup(oid)
			cg, ce, cok := cold.BestGroup(oid)
			if wok != cok || we != ce {
				t.Fatalf("order %d after insert %d: warm (ok=%v exp=%v) vs cold (ok=%v exp=%v)",
					oid, id, wok, we, cok, ce)
			}
			if wok && (wg.Plan.Cost != cg.Plan.Cost || wg.Key() != cg.Key()) {
				t.Fatalf("order %d: warm best %s cost %v, cold best %s cost %v",
					oid, wg.Key(), wg.Plan.Cost, cg.Key(), cg.Plan.Cost)
			}
		}
	}
	if *ran == 0 {
		t.Fatal("no prewarm task ever ran; the test exercised nothing")
	}
	// A prewarmed pair test counts as the unwarmed one it replaces, so both
	// pools count the same lookups.
	if w, c := warm.CacheStats(), cold.CacheStats(); w != c || w.Misses == 0 {
		t.Fatalf("warm pool counted %+v, cold pool %+v", w, c)
	}
}

// cloneOrder keeps the two pools from sharing order pointers (the pool
// stores what it is given).
func cloneOrder(o *order.Order) *order.Order { c := *o; return &c }

// TestPrewarmDisabledCacheNoop: with the plan cache off there is nowhere
// to merge results, so prewarm must do nothing (the equivalence arms of
// the benchmarks rely on the uncached pool staying untouched).
func TestPrewarmDisabledCacheNoop(t *testing.T) {
	net := roadnet.NewGridCity(20, 20, 100, 10)
	planner := route.NewPlanner(net)
	ix := gridindex.New(net, 10)
	opt := DefaultOptions()
	opt.DisablePlanCache = true
	p := New(planner, ix, opt)
	exec := &reverseExec{}
	o := mk(net, 1, net.Node(0, 0), net.Node(5, 0), 0, 2)
	p.PrewarmPairs(o, 0, exec)
	if exec.ran != 0 {
		t.Fatalf("prewarm ran %d tasks with the cache disabled", exec.ran)
	}
	if p.cachedPlans() != 0 {
		t.Fatalf("disabled cache holds %d entries", p.cachedPlans())
	}
}
