package exp

import (
	"testing"

	"watter/internal/sim"
)

// unwatched is WATTER-expect with the change signal taken away again after
// Init: its threshold source re-reads the pool's and the fleet's histograms
// on every call, as every source did before the snapshot existed.
type unwatched struct{ *expectAlg }

func (u unwatched) Init(env *sim.Env) {
	u.expectAlg.Init(env)
	u.src.Watch(nil)
}

// TestThresholdSnapshotEquivalence is the acceptance test of the threshold
// source's environment snapshot: WATTER-expect replayed with the source
// wired to the pool and fleet generation counters must produce per-seed
// Metrics bit-identical to the same replay with a source that trusts nothing
// and rebuilds the snapshot on every call — sequentially and at Shards = 2,
// where prewarm goroutines run beside the committing one.
// The snapshot may change how often the environment is read, never a
// decision. The source's own counters keep the comparison from being
// vacuous: the wired arm must actually have reused snapshots and the bare
// arm must actually have rebuilt every time.
func TestThresholdSnapshotEquivalence(t *testing.T) {
	r := NewRunner()
	base := smallParams()
	for _, seed := range []int64{1, 2} {
		for _, shards := range []int{1, 2} {
			p := base
			p.Seed = seed
			p.Train.Seed = base.Seed // both seeds share one trained model
			p.Shards = shards
			city := r.city(p.City)

			run := func(wired bool) (m *sim.Metrics, calls, rebuilds uint64) {
				built, err := r.Build("WATTER-expect", p)
				if err != nil {
					t.Fatal(err)
				}
				expect := built.(*expectAlg)
				alg := sim.Algorithm(expect)
				if !wired {
					alg = unwatched{expect}
				}
				_, orders, workers := r.workload(p)
				m = sim.Run(sim.NewEnv(city.Net, workers, simConfig(p)), alg, orders,
					sim.RunOptions{TickEvery: p.TickEvery})
				calls, rebuilds = expect.src.SnapshotStats()
				return m, calls, rebuilds
			}

			bare, bareCalls, bareRebuilds := run(false)
			wired, calls, rebuilds := run(true)
			if bare.Served == 0 || bare.Rejected == 0 {
				t.Fatalf("seed %d K=%d: degenerate run (%d served / %d rejected), equivalence is weak",
					seed, shards, bare.Served, bare.Rejected)
			}
			if *wired != *bare {
				t.Fatalf("seed %d K=%d: the snapshot changed the run:\nrebuild per call: %+v\nsnapshot:         %+v",
					seed, shards, *bare, *wired)
			}
			if bareCalls == 0 || bareRebuilds != bareCalls {
				t.Fatalf("seed %d K=%d: bare source rebuilt %d times in %d calls, want every call",
					seed, shards, bareRebuilds, bareCalls)
			}
			if calls != bareCalls {
				t.Fatalf("seed %d K=%d: %d thresholds with the snapshot, %d without", seed, shards, calls, bareCalls)
			}
			if rebuilds == 0 || rebuilds >= calls {
				t.Fatalf("seed %d K=%d: wired source rebuilt %d times in %d calls, want fewer rebuilds than calls",
					seed, shards, rebuilds, calls)
			}
			t.Logf("seed %d K=%d: %d thresholds, %d snapshot rebuilds (%.1f calls per snapshot)",
				seed, shards, calls, rebuilds, float64(calls)/float64(rebuilds))
		}
	}
}
