package exp

import (
	"testing"

	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/sim"
)

// equivArm is one city the equivalence tests run on. The closed-form city
// exercises neither lower-bound path (GridCity has no bounds); the two graph
// arms run the pair certificate and the bounded worker probe, answered by
// ALT and by the hierarchy.
type equivArm struct {
	name   string
	params Params
	seeds  []int64
	graph  bool
}

// equivArms returns the closed-form arm plus a jittered lattice answered by
// ALT and the same lattice with the hierarchy forced. The graph arms are
// smaller and run one seed: every cost there is a search, and the uncached
// reference pool replans every clique from fresh leg matrices.
func equivArms(r *Runner) []equivArm {
	arms := []equivArm{{name: "closed-form", params: smallParams(), seeds: []int64{1, 2}}}
	for _, hierarchy := range []bool{false, true} {
		p := smallParams()
		p.City.Name = "XIA-ALT"
		p.City.W, p.City.H = 18, 18
		p.City.RoadJitter, p.City.RoadSeed = 0.3, 1
		for i := range p.City.Hotspots {
			h := &p.City.Hotspots[i]
			h.X, h.Y, h.Sigma = h.X/2, h.Y/2, h.Sigma/2
		}
		p.Orders, p.Workers = 260, 26
		p.Train.HistoricalOrders, p.Train.TrainSteps = 150, 60
		if hierarchy {
			p.City.Name = "XIA-CH"
			r.city(p.City).Net.(*roadnet.Lattice).EnableHierarchy()
		}
		arms = append(arms, equivArm{name: p.City.Name, params: p, seeds: []int64{1}, graph: true})
	}
	return arms
}

// poolStats returns the plan-cache counters of a finished run's pool (zero
// for the pool-less baselines).
func poolStats(alg sim.Algorithm) pool.CacheStats {
	if pp, ok := alg.(interface{ Pool() *pool.Pool }); ok && pp.Pool() != nil {
		return pp.Pool().CacheStats()
	}
	return pool.CacheStats{}
}

// TestPoolCacheEquivalence is the acceptance test of the clique plan cache
// and of the pair certificate that rides on it: for all five algorithms, on
// every equivalence arm and each of its seeds, a full simulation with the
// pool's memoization on must produce per-seed Metrics bit-identical to one
// with every memo disabled (plan cache, leg-block store and lower-bound pair
// filter all off). The baselines have no pool and pin the harness path; the
// three WATTER variants exercise the cache on every insert, tick and
// dispatch. PairsPruned guards the graph arms against vacuity and pins that
// the closed-form city runs the code it always ran.
func TestPoolCacheEquivalence(t *testing.T) {
	r := NewRunner()
	for _, arm := range equivArms(r) {
		base := arm.params
		for _, seed := range arm.seeds {
			p := base
			p.Seed = seed
			p.Train.Seed = base.Seed // replicates share one trained model
			s, err := r.Setup(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range AlgNames {
				run := func(disable bool) (*sim.Metrics, pool.CacheStats) {
					alg, err := r.Build(name, p)
					if err != nil {
						t.Fatalf("Build(%s): %v", name, err)
					}
					if ps, ok := alg.(interface{ SetPoolOptions(pool.Options) }); ok {
						opt := poolOptions(p)
						opt.DisablePlanCache = disable
						ps.SetPoolOptions(opt)
					}
					m := replay(t, s, alg)
					return m, poolStats(alg)
				}
				cached, st := run(false)
				uncached, off := run(true)
				if *cached != *uncached {
					t.Fatalf("%s %s seed %d: metrics diverged with plan cache on:\ncached:   %+v\nuncached: %+v",
						arm.name, name, seed, *cached, *uncached)
				}
				if cached.Served == 0 || cached.Rejected == 0 {
					t.Fatalf("%s %s seed %d: degenerate run (%d served / %d rejected), equivalence is weak",
						arm.name, name, seed, cached.Served, cached.Rejected)
				}
				if name != "GDP" && name != "GAS" {
					if st.PlansAvoided() == 0 {
						t.Fatalf("%s %s seed %d: cache never hit (%+v), equivalence is vacuous", arm.name, name, seed, st)
					}
					if off != (pool.CacheStats{}) {
						t.Fatalf("%s %s seed %d: disabled cache recorded traffic: %+v", arm.name, name, seed, off)
					}
					if (st.PairsPruned > 0) != arm.graph {
						t.Fatalf("%s %s seed %d: PairsPruned = %d, want > 0 exactly on graph cities",
							arm.name, name, seed, st.PairsPruned)
					}
				}
			}
		}
	}
}

// TestPoolCacheRenewalPastExpiry is the end-to-end cell where a plan-cache
// renewal changes a decision: on the closed-form XIA city with every pair
// tested (CandidateRadius -1), loose deadlines (TauScale 2.4) and one worker
// per 40 orders, cliques outlive their cached τg while no worker is free,
// and a renewal past τg comes back feasible on a costlier route that wins
// an order's best group. A cache that served the expired entry instead of
// replanning it diverges from the uncached run here; the cells of
// TestPoolCacheEquivalence never reach that case.
func TestPoolCacheRenewalPastExpiry(t *testing.T) {
	r := NewRunner()
	p := smallParams()
	p.Orders, p.Workers, p.TauScale, p.Seed = 520, 13, 2.4, 2
	s, err := r.Setup(p)
	if err != nil {
		t.Fatal(err)
	}
	run := func(disable bool) (*sim.Metrics, pool.CacheStats) {
		alg, err := r.Build("WATTER-online", p)
		if err != nil {
			t.Fatal(err)
		}
		opt := poolOptions(p)
		opt.CandidateRadius = -1
		opt.DisablePlanCache = disable
		alg.(interface{ SetPoolOptions(pool.Options) }).SetPoolOptions(opt)
		m := replay(t, s, alg)
		return m, poolStats(alg)
	}
	cached, st := run(false)
	uncached, _ := run(true)
	if *cached != *uncached {
		t.Fatalf("metrics diverged with plan cache on:\ncached:   %+v\nuncached: %+v", *cached, *uncached)
	}
	if st.Renewed == 0 {
		t.Fatalf("no entry was renewed past its τg (%+v): the cell no longer reaches the case it guards", st)
	}
}
