package exp

import (
	"sort"
	"testing"
	"time"

	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/sim"
)

// legacyRun is a frozen copy of the pre-redesign batch runner (sim.Run
// before the streaming core existed): pre-sorted slice, upfront horizon
// and DirectCost enrichment, one monolithic loop. It is the reference the
// adapter-over-streaming-core path must reproduce bit for bit. The only
// edits are that it enriches clones instead of the caller's orders, so the
// three arms of the equivalence test all see pristine inputs, and that its
// drain-slack override went with the option.
func legacyRun(env *sim.Env, alg sim.Algorithm, orders []*order.Order, opts sim.RunOptions) *sim.Metrics {
	if opts.TickEvery <= 0 {
		opts.TickEvery = 10
	}
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
	timed := func(fn func()) {
		if !opts.MeasureTime {
			fn()
			return
		}
		start := time.Now()
		fn()
		env.Metrics.DecisionSeconds += time.Since(start).Seconds()
	}

	timed(func() { alg.Init(env) })
	nextTick := opts.TickEvery
	for _, o := range sorted {
		for nextTick <= o.Release {
			env.Clock = nextTick
			t := nextTick
			timed(func() { alg.OnTick(t) })
			nextTick += opts.TickEvery
		}
		env.Clock = o.Release
		oo := o
		timed(func() { alg.OnOrder(oo, oo.Release) })
	}
	for nextTick <= horizon {
		env.Clock = nextTick
		t := nextTick
		timed(func() { alg.OnTick(t) })
		nextTick += opts.TickEvery
	}
	env.Clock = horizon
	timed(func() { alg.Finish(horizon) })
	return &env.Metrics
}

// TestReplayEquivalence is the acceptance test of the platform redesign:
// for all five algorithms, the batch adapter over the streaming core
// (sim.Run) and the full event-driven platform path (Platform.Replay with
// a subscribed, drained event bus) must both produce per-seed Metrics
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
			opts := sim.RunOptions{TickEvery: p.TickEvery}

			legacy := arm(func(alg sim.Algorithm) *sim.Metrics {
				return legacyRun(sim.NewEnv(s.City.Net, s.Fleet(), s.Config()), alg, s.Orders, opts)
			})
			adapter := arm(func(alg sim.Algorithm) *sim.Metrics {
				return sim.Run(sim.NewEnv(s.City.Net, s.Fleet(), s.Config()), alg, s.Orders, opts)
			})
			var admitted, dispatched, rejected int
			streamed := arm(func(alg sim.Algorithm) *sim.Metrics {
				plat, err := s.Platform(alg, false)
				if err != nil {
					t.Fatalf("platform.New(%s): %v", name, err)
				}
				events := plat.Events()
				done := make(chan struct{})
				go func() {
					defer close(done)
					for ev := range events {
						switch e := ev.(type) {
						case platform.OrderAdmitted:
							admitted++
						case platform.GroupDispatched:
							dispatched += e.Size()
						case platform.OrderRejected:
							rejected++
						}
					}
				}()
				m, err := plat.Replay(s.Orders)
				if err != nil {
					t.Fatalf("Replay(%s): %v", name, err)
				}
				<-done
				return m
			})

			if *adapter != *legacy {
				t.Fatalf("%s seed %d: adapter diverged from pre-redesign runner:\nlegacy:  %+v\nadapter: %+v",
					name, seed, *legacy, *adapter)
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
				t.Fatalf("%s seed %d: event bus disagrees with metrics: admitted=%d/%d dispatched=%d/%d rejected=%d/%d",
					name, seed, admitted, legacy.Total, dispatched, legacy.Served, rejected, legacy.Rejected)
			}
		}
	}
}
