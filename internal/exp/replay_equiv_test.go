package exp

import (
	"sort"
	"testing"

	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/sim"
)

// legacyRun is a frozen copy of the pre-redesign batch runner (sim.Run
// before the streaming core existed): pre-sorted slice, upfront horizon
// and DirectCost enrichment, one monolithic loop. It is the reference the
// platform must reproduce bit for bit. The only edits are that it enriches
// clones instead of the caller's orders, so the three arms of the
// equivalence test all see pristine inputs, that its drain-slack override
// went with the option, and that it takes Δt alone and runs untimed, as
// every arm does, since its options struct is gone.
func legacyRun(env *sim.Env, alg sim.Algorithm, orders []*order.Order, tickEvery float64) *sim.Metrics {
	sorted := make([]*order.Order, len(orders))
	for i, o := range orders {
		c := *o
		sorted[i] = &c
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Release < sorted[j].Release })

	var horizon float64
	for _, o := range sorted {
		if o.DirectCost == 0 {
			o.DirectCost = env.Net.Cost(o.Pickup, o.Dropoff)
		}
		if o.Deadline > horizon {
			horizon = o.Deadline
		}
	}
	env.Metrics = sim.Metrics{Total: len(sorted)}

	alg.Init(env)
	nextTick := tickEvery
	for _, o := range sorted {
		for nextTick <= o.Release {
			env.Clock = nextTick
			alg.OnTick(nextTick)
			nextTick += tickEvery
		}
		env.Clock = o.Release
		alg.OnOrder(o, o.Release)
	}
	for nextTick <= horizon {
		env.Clock = nextTick
		alg.OnTick(nextTick)
		nextTick += tickEvery
	}
	env.Clock = horizon
	alg.Finish(horizon)
	return &env.Metrics
}

// submitOneByOne drives the platform one call at a time, the way a live
// client does (and benchmark/harness.go times it): every periodic check due
// at or before an order's release is fired with Tick, then the order is
// submitted; Close drains.
func submitOneByOne(t *testing.T, plat *platform.Platform, orders []*order.Order, tickEvery float64) *sim.Metrics {
	t.Helper()
	sorted := make([]*order.Order, len(orders))
	for i, o := range orders {
		c := *o
		sorted[i] = &c
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Release < sorted[j].Release })
	nextTick := tickEvery
	for _, o := range sorted {
		for ; nextTick <= o.Release; nextTick += tickEvery {
			if _, err := plat.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		if err := plat.Submit(o); err != nil {
			t.Fatal(err)
		}
	}
	m, err := plat.Close()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReplayEquivalence is the acceptance test of the platform redesign:
// for all five algorithms, the full event-driven platform path
// (Platform.Replay with an observer counting its events) and a client that
// calls Submit/Tick/Close one at a time must both produce per-seed Metrics
// bit-identical to the frozen pre-redesign runner. Wall-clock fields are
// the documented exception (DESIGN.md §8) and are disabled here.
func TestReplayEquivalence(t *testing.T) {
	r := NewRunner()
	base := smallParams()
	for _, seed := range []int64{1, 2} {
		p := base
		p.Seed = seed
		p.Train.Seed = base.Seed // replicates share one trained model
		for _, name := range AlgNames {
			s, err := r.Setup(p)
			if err != nil {
				t.Fatal(err)
			}
			arm := func(run func(alg sim.Algorithm) *sim.Metrics) *sim.Metrics {
				alg, err := r.Build(name, p)
				if err != nil {
					t.Fatalf("Build(%s): %v", name, err)
				}
				return run(alg)
			}

			legacy := arm(func(alg sim.Algorithm) *sim.Metrics {
				// The pre-redesign builder set the framework's Δt itself.
				if ts, ok := alg.(interface{ SetTick(float64) }); ok {
					ts.SetTick(p.TickEvery)
				}
				return legacyRun(sim.NewEnv(s.City.Net, s.Fleet(), s.Config()), alg, s.Orders, p.TickEvery)
			})
			oneByOne := arm(func(alg sim.Algorithm) *sim.Metrics {
				plat, err := s.Platform(alg, false)
				if err != nil {
					t.Fatalf("platform.New(%s): %v", name, err)
				}
				return submitOneByOne(t, plat, s.Orders, p.TickEvery)
			})
			var admitted, dispatched, rejected int
			observe := platform.WithObserver(func(ev platform.Event) {
				switch e := ev.(type) {
				case platform.OrderAdmitted:
					admitted++
				case platform.GroupDispatched:
					dispatched += e.Size()
				case platform.OrderRejected:
					rejected++
				}
			})
			streamed := arm(func(alg sim.Algorithm) *sim.Metrics {
				plat, err := platform.New(s.City.Net, s.Fleet(), append(s.Options(false), platform.WithAlgorithm(alg), observe)...)
				if err != nil {
					t.Fatalf("platform.New(%s): %v", name, err)
				}
				m, err := plat.Replay(s.Orders)
				if err != nil {
					t.Fatalf("Replay(%s): %v", name, err)
				}
				return m
			})

			if *oneByOne != *legacy {
				t.Fatalf("%s seed %d: one-call-at-a-time client diverged from pre-redesign runner:\nlegacy:     %+v\none-by-one: %+v",
					name, seed, *legacy, *oneByOne)
			}
			if *streamed != *legacy {
				t.Fatalf("%s seed %d: platform event path diverged from pre-redesign runner:\nlegacy:   %+v\nstreamed: %+v",
					name, seed, *legacy, *streamed)
			}
			if legacy.Served == 0 || legacy.Rejected == 0 {
				t.Fatalf("%s seed %d: degenerate run (%d served / %d rejected), equivalence is weak",
					name, seed, legacy.Served, legacy.Rejected)
			}
			if admitted != legacy.Total || dispatched != legacy.Served || rejected != legacy.Rejected {
				t.Fatalf("%s seed %d: observed events disagree with metrics: admitted=%d/%d dispatched=%d/%d rejected=%d/%d",
					name, seed, admitted, legacy.Total, dispatched, legacy.Served, rejected, legacy.Rejected)
			}
		}
	}
}
