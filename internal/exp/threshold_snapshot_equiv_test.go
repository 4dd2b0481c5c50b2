package exp

import (
	"math"
	"reflect"
	"testing"

	"watter/internal/mdp"
	"watter/internal/order"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// unwatched is WATTER-expect with the change signal taken away again after
// Init: its threshold source re-reads the pool's and the fleet's histograms
// on every call, as every source did before the snapshot existed, and so
// keeps no θ memo and claims no range.
type unwatched struct{ *expectAlg }

func (u unwatched) Init(env *sim.Env) {
	u.expectAlg.Init(env)
	u.src.Watch(nil)
}

// TestThresholdSnapshotEquivalence is the acceptance test of the threshold
// source's environment snapshot and θ memo: WATTER-expect replayed with the
// source wired to the pool and fleet generation counters must produce
// per-seed Metrics bit-identical to the same replay with a source that
// trusts nothing and rebuilds the snapshot on every call — sequentially and
// at Shards = 2, where prewarm goroutines run beside the committing one.
// The snapshot may change how often the environment is read and the
// network is run, never a decision. The source's own counters keep the
// comparison from being vacuous: the wired arm must actually have reused
// snapshots and memoized θ, and the bare arm must actually have rebuilt and
// run the network on every call.
func TestThresholdSnapshotEquivalence(t *testing.T) {
	r := NewRunner()
	base := smallParams()
	for _, seed := range []int64{1, 2} {
		for _, shards := range []int{1, 2} {
			p := base
			p.Seed = seed
			p.Train.Seed = base.Seed // both seeds share one trained model
			p.Shards = shards
			s, err := r.Setup(p)
			if err != nil {
				t.Fatal(err)
			}

			run := func(wired bool) (m *sim.Metrics, calls, passes, rebuilds uint64) {
				built, err := r.Build("WATTER-expect", p)
				if err != nil {
					t.Fatal(err)
				}
				expect := built.(*expectAlg)
				alg := sim.Algorithm(expect)
				if !wired {
					alg = unwatched{expect}
				}
				m = replay(t, s, alg)
				calls, passes, rebuilds = expect.src.SnapshotStats()
				return m, calls, passes, rebuilds
			}

			bare, bareCalls, barePasses, bareRebuilds := run(false)
			wired, calls, passes, rebuilds := run(true)
			if bare.Served == 0 || bare.Rejected == 0 {
				t.Fatalf("seed %d K=%d: degenerate run (%d served / %d rejected), equivalence is weak",
					seed, shards, bare.Served, bare.Rejected)
			}
			if *wired != *bare {
				t.Fatalf("seed %d K=%d: the snapshot changed the run:\nrebuild per call: %+v\nsnapshot:         %+v",
					seed, shards, *bare, *wired)
			}
			if bareCalls == 0 || bareRebuilds != bareCalls || barePasses != bareCalls {
				t.Fatalf("seed %d K=%d: bare source rebuilt %d times and ran the network %d times in %d calls, want every call",
					seed, shards, bareRebuilds, barePasses, bareCalls)
			}
			if calls > bareCalls {
				t.Fatalf("seed %d K=%d: %d thresholds with the snapshot, %d without: the range can only save calls",
					seed, shards, calls, bareCalls)
			}
			if rebuilds == 0 || rebuilds >= calls {
				t.Fatalf("seed %d K=%d: wired source rebuilt %d times in %d calls, want fewer rebuilds than calls",
					seed, shards, rebuilds, calls)
			}
			if passes == 0 || passes >= calls {
				t.Fatalf("seed %d K=%d: wired source ran the network %d times in %d calls, want fewer passes than calls",
					seed, shards, passes, calls)
			}
			t.Logf("seed %d K=%d: %d thresholds without the signal, %d with it: %d network passes (%.3f per call), %d snapshot rebuilds (%.1f calls per snapshot)",
				seed, shards, bareCalls, calls, passes, float64(passes)/float64(calls), rebuilds, float64(calls)/float64(rebuilds))
		}
	}
}

// denseSource is θ the way the source computed it before it had a snapshot,
// a memo, a range or a sparse input: fresh histograms from Demand and
// Supply, the dense state from Features, the network's dense entry point.
// It claims no range, and counts what it is asked.
type denseSource struct {
	src   *mdp.ValueThresholdSource
	calls int
}

func (d *denseSource) Threshold(o *order.Order, now float64) float64 {
	d.calls++
	pu, do := d.src.Demand()
	x := d.src.Feat.Features(o, now, pu, do, d.src.Supply(now))
	p := o.Penalty()
	theta := p - d.src.Net.Predict(x)
	if theta < 0 {
		theta = 0
	}
	if theta > p {
		theta = p
	}
	return theta
}

func (*denseSource) ThresholdRange(*order.Order, float64) (lo, hi float64) {
	return strategy.Unbounded()
}

// rangeOf answers θ from one source and its range from another.
type rangeOf struct {
	strategy.ThresholdSource
	ranges strategy.ThresholdSource
}

func (r rangeOf) ThresholdRange(o *order.Order, now float64) (lo, hi float64) {
	return r.ranges.ThresholdRange(o, now)
}

// noRange hides a source's range.
type noRange struct{ strategy.ThresholdSource }

func (noRange) ThresholdRange(*order.Order, float64) (lo, hi float64) { return strategy.Unbounded() }

// checkedSource asserts that every θ its source answers is the full
// path's, bit for bit, at the same instant.
type checkedSource struct {
	strategy.ThresholdSource
	full *denseSource
	t    *testing.T
}

func (c checkedSource) Threshold(o *order.Order, now float64) float64 {
	got := c.ThresholdSource.Threshold(o, now)
	if want := c.full.Threshold(o, now); math.Float64bits(got) != math.Float64bits(want) {
		c.t.Fatalf("order %d at %v: θ = %v, the full path's is %v", o.ID, now, got, want)
	}
	return got
}

// cutArm runs WATTER-expect with the decision's threshold source replaced,
// once Init has wired the production one, and records every event.
type cutArm struct {
	*expectAlg
	source func(a *expectAlg) strategy.ThresholdSource
	events *[]sim.Event
}

func (c cutArm) Init(env *sim.Env) {
	env.Observe(func(ev sim.Event) { *c.events = append(*c.events, ev) })
	c.expectAlg.Init(env)
	c.Decide.(*strategy.Threshold).Source = c.source(c.expectAlg)
}

// TestThresholdCutsLockstep: each of the three cuts the threshold source
// and the strategy make to WATTER-expect's inference — the θ memo, the
// bound-first decision, the sparse layer-0 input — and all three together
// leave sim.Metrics and the whole event sequence exactly as the full path
// produces them, on several seeds, and every θ an arm computes is the one
// the full path computes at that instant. The full path is denseSource with
// no range: every member's θ, every time, from a dense state.
func TestThresholdCutsLockstep(t *testing.T) {
	r := NewRunner()
	base := smallParams()
	var boundsDense *denseSource // the bounds arm's θ, to count them
	arms := []struct {
		name   string
		source func(a *expectAlg) strategy.ThresholdSource
	}{
		{"memo", func(a *expectAlg) strategy.ThresholdSource { return noRange{a.src} }},
		{"bounds", func(a *expectAlg) strategy.ThresholdSource {
			boundsDense = &denseSource{src: a.src}
			return rangeOf{boundsDense, a.src}
		}},
		{"sparse", func(a *expectAlg) strategy.ThresholdSource {
			a.src.Watch(nil)
			return a.src
		}},
		{"all", func(a *expectAlg) strategy.ThresholdSource { return a.src }},
	}
	for _, seed := range []int64{1, 2, 3} {
		p := base
		p.Seed = seed
		p.Train.Seed = base.Seed
		s, err := r.Setup(p)
		if err != nil {
			t.Fatal(err)
		}
		run := func(source func(a *expectAlg) strategy.ThresholdSource) (*sim.Metrics, []sim.Event, *expectAlg) {
			built, err := r.Build("WATTER-expect", p)
			if err != nil {
				t.Fatal(err)
			}
			var events []sim.Event
			expect := built.(*expectAlg)
			checked := func(a *expectAlg) strategy.ThresholdSource {
				return checkedSource{source(a), &denseSource{src: a.src}, t}
			}
			m := replay(t, s, cutArm{expect, checked, &events})
			return m, events, expect
		}
		var full *denseSource
		fullM, fullEvents, _ := run(func(a *expectAlg) strategy.ThresholdSource {
			full = &denseSource{src: a.src}
			return full
		})
		if fullM.Served == 0 || fullM.Rejected == 0 || len(fullEvents) == 0 {
			t.Fatalf("seed %d: degenerate run (%d served / %d rejected)", seed, fullM.Served, fullM.Rejected)
		}
		for _, arm := range arms {
			m, events, expect := run(arm.source)
			if *m != *fullM {
				t.Fatalf("seed %d %s: Metrics differ from the full path:\nfull: %+v\n%s: %+v", seed, arm.name, *fullM, arm.name, *m)
			}
			if !reflect.DeepEqual(events, fullEvents) {
				t.Fatalf("seed %d %s: the event sequence differs from the full path's (%d events vs %d)",
					seed, arm.name, len(events), len(fullEvents))
			}
			calls, passes, _ := expect.src.SnapshotStats()
			if arm.name == "bounds" {
				calls, passes = uint64(boundsDense.calls), uint64(boundsDense.calls)
			}
			t.Logf("seed %d %s: the full path asked for %d θ, this arm for %d and ran the network %d times",
				seed, arm.name, full.calls, calls, passes)
			// Vacuity: each cut must actually have cut something.
			switch arm.name {
			case "memo", "all":
				if passes >= calls {
					t.Fatalf("seed %d %s: %d passes for %d calls, the memo never answered", seed, arm.name, passes, calls)
				}
			case "sparse":
				if passes == 0 || passes != calls {
					t.Fatalf("seed %d sparse: %d passes for %d calls, want one per call", seed, passes, calls)
				}
			}
			if (arm.name == "bounds" || arm.name == "all") && int(calls) >= full.calls {
				t.Fatalf("seed %d %s: %d θ asked, the full path asked %d: the range never decided", seed, arm.name, calls, full.calls)
			}
		}
	}
}
