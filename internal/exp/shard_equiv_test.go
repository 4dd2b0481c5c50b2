package exp

import (
	"testing"

	"watter/internal/core"
	"watter/internal/sim"
)

// TestShardEquivalence is the acceptance test of the insert prewarm
// engine: for all five algorithms, on every equivalence arm (closed-form
// city, ALT graph, hierarchy graph) and each of its seeds, running the same
// workload with K ∈ {2, 4} prewarm goroutines must produce per-seed Metrics
// bit-identical to K = 1. The pair plans are pure and merge in candidate
// order, so K buys cores, never different dispatches. On the graph arms
// that covers a prewarm that skips certified-infeasible pairs (PairsPruned
// > 0 there, identical at every K, 0 on the closed-form city). Wall-clock
// fields are the documented exception (DESIGN.md §8) and are disabled here.
func TestShardEquivalence(t *testing.T) {
	r := NewRunner()
	for _, arm := range equivArms(r) {
		base := arm.params
		for _, seed := range arm.seeds {
			for _, name := range AlgNames {
				p := base
				p.Seed = seed
				p.Train.Seed = base.Seed // replicates share one trained model
				s, err := r.Setup(p)
				if err != nil {
					t.Fatal(err)
				}

				run := func(shards int) (*sim.Metrics, uint64) {
					pp := p
					pp.Shards = shards
					alg, err := r.Build(name, pp)
					if err != nil {
						t.Fatalf("Build(%s): %v", name, err)
					}
					m := replay(t, s, alg)
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
// testing nothing: a sharded WATTER run must actually prewarm pairs on the
// engine.
func TestShardEngineExercised(t *testing.T) {
	p := smallParams()
	p.Shards = 4
	r := NewRunner()
	alg, err := r.Build("WATTER-online", p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := r.Setup(p)
	if err != nil {
		t.Fatal(err)
	}
	replay(t, s, alg)
	fw, ok := alg.(*core.Framework)
	if !ok {
		t.Fatalf("WATTER-online is %T, not *core.Framework", alg)
	}
	eng := fw.ShardEngine()
	if eng == nil {
		t.Fatal("sharded run left no engine")
	}
	if st := eng.Stats(); st.PrewarmTasks == 0 {
		t.Fatalf("no pairwise plan was prewarmed: %+v", st)
	}
}
