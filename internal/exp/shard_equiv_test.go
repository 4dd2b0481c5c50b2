package exp

import (
	"testing"

	"watter/internal/core"
	"watter/internal/sim"
)

// TestShardEquivalence is the acceptance test of the slot-sharded dispatch
// engine: for all five algorithms, on every equivalence arm (closed-form
// city, ALT graph, hierarchy graph) and each of its seeds, running the same
// workload with K ∈ {2, 4} shards must produce per-seed Metrics
// bit-identical to the sequential K = 1 check. Sharding buys cores, never
// different dispatches — the engine's speculations are consumed only while provably
// equal to what a fresh computation would return. On the graph arms that
// covers the bounded worker probe's smaller candidate record and a prewarm
// that skips certified-infeasible pairs (PairsPruned > 0 there, identical at
// every K, 0 on the closed-form city). Wall-clock fields are the documented
// exception (DESIGN.md §8) and are disabled here.
func TestShardEquivalence(t *testing.T) {
	r := NewRunner()
	for _, arm := range equivArms(r) {
		base := arm.params
		for _, seed := range arm.seeds {
			for _, name := range AlgNames {
				p := base
				p.Seed = seed
				p.Train.Seed = base.Seed // replicates share one trained model
				city := r.city(p.City)
				cfg := simConfig(p)
				opts := sim.RunOptions{TickEvery: p.TickEvery}

				run := func(shards int) (*sim.Metrics, uint64) {
					pp := p
					pp.Shards = shards
					alg, err := r.Build(name, pp)
					if err != nil {
						t.Fatalf("Build(%s): %v", name, err)
					}
					_, orders, workers := r.workload(pp)
					m := sim.Run(sim.NewEnv(city.Net, workers, cfg), alg, orders, opts)
					return m, poolStats(alg).PairsPruned
				}

				sequential, pruned := run(1)
				if sequential.Served == 0 || sequential.Rejected == 0 {
					t.Fatalf("%s %s seed %d: degenerate run (%d served / %d rejected), equivalence is weak",
						arm.name, name, seed, sequential.Served, sequential.Rejected)
				}
				if name != "GDP" && name != "GAS" && (pruned > 0) != arm.graph {
					t.Fatalf("%s %s seed %d: PairsPruned = %d, want > 0 exactly on graph cities",
						arm.name, name, seed, pruned)
				}
				for _, k := range []int{2, 4} {
					sharded, prunedK := run(k)
					if *sharded != *sequential {
						t.Fatalf("%s %s seed %d: K=%d shards diverged from the sequential check:\nK=1: %+v\nK=%d: %+v",
							arm.name, name, seed, k, *sequential, k, *sharded)
					}
					if prunedK != pruned {
						t.Fatalf("%s %s seed %d: K=%d pruned %d pairs, K=1 pruned %d", arm.name, name, seed, k, prunedK, pruned)
					}
				}
			}
		}
	}
}

// TestShardEngineExercised guards the equivalence test against silently
// testing nothing: a sharded WATTER run must actually consume speculative
// probes and prewarmed pairs.
func TestShardEngineExercised(t *testing.T) {
	p := smallParams()
	p.Shards = 4
	alg, err := NewRunner().Build("WATTER-online", p)
	if err != nil {
		t.Fatal(err)
	}
	city, orders, workers := Workload(p)
	sim.Run(sim.NewEnv(city.Net, workers, simConfig(p)), alg, orders,
		sim.RunOptions{TickEvery: p.TickEvery})
	fw, ok := alg.(*core.Framework)
	if !ok {
		t.Fatalf("WATTER-online is %T, not *core.Framework", alg)
	}
	eng := fw.ShardEngine()
	if eng == nil {
		t.Fatal("sharded run left no engine")
	}
	st := eng.Stats()
	if st.Ticks == 0 || st.SpecOrders == 0 {
		t.Fatalf("engine speculated nothing: %+v", st)
	}
	if st.GroupHits+st.SoloHits == 0 {
		t.Fatalf("no speculative probe was ever consumed: %+v", st)
	}
	if st.PrewarmTasks == 0 {
		t.Fatalf("no pairwise plan was prewarmed: %+v", st)
	}
	if eng.Table().K() != 4 {
		t.Fatalf("table has %d shards, want 4", eng.Table().K())
	}
}
