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
// claims no range.
type unwatched struct{ *expectAlg }

func (u unwatched) Init(env *sim.Env) {
	u.expectAlg.Init(env)
	u.src.Watch(nil)
}

// TestThresholdSnapshotEquivalence is the acceptance test of the threshold
// source's environment snapshot, suffix sums and estimate memo:
// WATTER-expect replayed with the source wired to the pool and fleet
// generation counters must produce per-seed Metrics bit-identical to the
// same replay with a source that trusts nothing, rebuilds the snapshot on
// every call and claims no range. The snapshot may change how often the
// environment is read and the network is run, never a decision. The
// source's own counters keep the comparison from being vacuous: the wired
// arm must actually have reused snapshots, answered ranges from split
// passes and the memo, and saved exact passes, and the bare arm must
// actually have rebuilt on every call.
func TestThresholdSnapshotEquivalence(t *testing.T) {
	r := NewRunner()
	base := smallParams()
	for _, seed := range []int64{1, 2} {
		p := base
		p.Seed = seed
		p.Train.Seed = base.Seed // both seeds share one trained model
		s, err := r.Setup(p)
		if err != nil {
			t.Fatal(err)
		}

		run := func(wired bool) (*sim.Metrics, mdp.SourceStats) {
			built, err := r.Build("WATTER-expect", p)
			if err != nil {
				t.Fatal(err)
			}
			expect := built.(*expectAlg)
			alg := sim.Algorithm(expect)
			if !wired {
				alg = unwatched{expect}
			}
			m := replay(t, s, alg)
			return m, expect.src.SnapshotStats()
		}

		bare, b := run(false)
		wired, w := run(true)
		if bare.Served == 0 || bare.Rejected == 0 {
			t.Fatalf("seed %d: degenerate run (%d served / %d rejected), equivalence is weak",
				seed, bare.Served, bare.Rejected)
		}
		if *wired != *bare {
			t.Fatalf("seed %d: the snapshot changed the run:\nrebuild per call: %+v\nsnapshot:         %+v",
				seed, *bare, *wired)
		}
		if b.Exact == 0 || b.Rebuilds != b.Exact || b.Ranges == 0 || b.Splits != 0 {
			t.Fatalf("seed %d: bare source rebuilt %d times in %d thresholds and ran %d split passes for %d ranges, want a rebuild per threshold and no split",
				seed, b.Rebuilds, b.Exact, b.Splits, b.Ranges)
		}
		if w.Exact >= b.Exact {
			t.Fatalf("seed %d: %d exact passes with the snapshot, %d without: the range never decided",
				seed, w.Exact, b.Exact)
		}
		if w.Splits == 0 || w.Splits >= w.Ranges {
			t.Fatalf("seed %d: wired source ran %d split passes for %d ranges, want fewer passes than ranges",
				seed, w.Splits, w.Ranges)
		}
		if w.Rebuilds == 0 || w.Rebuilds >= w.Splits {
			t.Fatalf("seed %d: wired source rebuilt %d times for %d split passes, want fewer rebuilds than passes",
				seed, w.Rebuilds, w.Splits)
		}
		t.Logf("seed %d: %d thresholds without the signal; with it %d ranges (%d split passes, %.3f per range), %d exact passes, %d snapshot rebuilds (%.1f ranges per snapshot)",
			seed, b.Exact, w.Ranges, w.Splits, float64(w.Splits)/float64(w.Ranges), w.Exact, w.Rebuilds, float64(w.Ranges)/float64(w.Rebuilds))
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

// widened pads a source's ranges by pad seconds on each side, so the
// decision falls back to the source's exact θ near many more ties.
type widened struct {
	strategy.ThresholdSource
	pad float64
}

func (w widened) ThresholdRange(o *order.Order, now float64) (lo, hi float64) {
	lo, hi = w.ThresholdSource.ThresholdRange(o, now)
	return lo - w.pad, hi + w.pad
}

// checkedSource asserts that every θ its source answers is the full
// path's, bit for bit, and that every range it claims contains the full
// path's θ, at the same instant. It records the widest finite range.
type checkedSource struct {
	strategy.ThresholdSource
	full   *denseSource
	t      *testing.T
	widest *float64
}

func (c checkedSource) Threshold(o *order.Order, now float64) float64 {
	got := c.ThresholdSource.Threshold(o, now)
	if want := c.full.Threshold(o, now); math.Float64bits(got) != math.Float64bits(want) {
		c.t.Fatalf("order %d at %v: θ = %v, the full path's is %v", o.ID, now, got, want)
	}
	return got
}

func (c checkedSource) ThresholdRange(o *order.Order, now float64) (lo, hi float64) {
	lo, hi = c.ThresholdSource.ThresholdRange(o, now)
	if want := c.full.Threshold(o, now); !(lo <= want && want <= hi) {
		c.t.Fatalf("order %d at %v: θ = %v, outside the claimed [%v, %v]", o.ID, now, want, lo, hi)
	}
	if w := hi - lo; w > *c.widest && !math.IsInf(w, 1) {
		*c.widest = w
	}
	return lo, hi
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

// TestThresholdCutsLockstep: each of the cuts the threshold source and the
// strategy make to WATTER-expect's inference — the bound-first decision
// over split-pass ranges, the sparse layer-0 input with its snapshot — and
// the production source with both, alone and with its ranges widened so
// that exact passes interleave with split ones, leave sim.Metrics and the
// whole event sequence exactly as the full path produces them, on several
// seeds; every θ an arm computes is the one the full path computes at that
// instant, and every range an arm claims contains it. The full path is
// denseSource with no range: every member's θ, every time, from a dense
// state.
func TestThresholdCutsLockstep(t *testing.T) {
	r := NewRunner()
	base := smallParams()
	var boundsDense *denseSource // the bounds arm's θ, to count them
	arms := []struct {
		name   string
		source func(a *expectAlg) strategy.ThresholdSource
	}{
		{"bounds", func(a *expectAlg) strategy.ThresholdSource {
			boundsDense = &denseSource{src: a.src}
			return rangeOf{boundsDense, a.src}
		}},
		{"sparse", func(a *expectAlg) strategy.ThresholdSource {
			a.src.Watch(nil)
			return a.src
		}},
		{"split", func(a *expectAlg) strategy.ThresholdSource { return a.src }},
		// The exact pass interleaved with split passes under one snapshot.
		{"widened", func(a *expectAlg) strategy.ThresholdSource { return widened{a.src, 5} }},
	}
	for _, seed := range []int64{1, 2, 3} {
		p := base
		p.Seed = seed
		p.Train.Seed = base.Seed
		s, err := r.Setup(p)
		if err != nil {
			t.Fatal(err)
		}
		run := func(source func(a *expectAlg) strategy.ThresholdSource) (*sim.Metrics, []sim.Event, *expectAlg, float64) {
			built, err := r.Build("WATTER-expect", p)
			if err != nil {
				t.Fatal(err)
			}
			var events []sim.Event
			var widest float64
			expect := built.(*expectAlg)
			checked := func(a *expectAlg) strategy.ThresholdSource {
				return checkedSource{source(a), &denseSource{src: a.src}, t, &widest}
			}
			m := replay(t, s, cutArm{expect, checked, &events})
			return m, events, expect, widest
		}
		var full *denseSource
		fullM, fullEvents, _, _ := run(func(a *expectAlg) strategy.ThresholdSource {
			full = &denseSource{src: a.src}
			return full
		})
		if fullM.Served == 0 || fullM.Rejected == 0 || len(fullEvents) == 0 {
			t.Fatalf("seed %d: degenerate run (%d served / %d rejected)", seed, fullM.Served, fullM.Rejected)
		}
		for _, arm := range arms {
			m, events, expect, widest := run(arm.source)
			if *m != *fullM {
				t.Fatalf("seed %d %s: Metrics differ from the full path:\nfull: %+v\n%s: %+v", seed, arm.name, *fullM, arm.name, *m)
			}
			if !reflect.DeepEqual(events, fullEvents) {
				t.Fatalf("seed %d %s: the event sequence differs from the full path's (%d events vs %d)",
					seed, arm.name, len(events), len(fullEvents))
			}
			st := expect.src.SnapshotStats()
			exact := st.Exact
			if arm.name == "bounds" {
				exact = uint64(boundsDense.calls)
			}
			t.Logf("seed %d %s: the full path asked for %d θ; this arm ran %d exact passes, %d split passes for %d ranges, widest range %.3g s",
				seed, arm.name, full.calls, exact, st.Splits, st.Ranges, widest)
			// Vacuity: each cut must actually have cut something.
			switch arm.name {
			case "sparse":
				if exact == 0 || st.Rebuilds != exact || st.Splits != 0 {
					t.Fatalf("seed %d sparse: %d rebuilds and %d split passes for %d thresholds, want a rebuild each and no split", seed, st.Rebuilds, st.Splits, exact)
				}
			case "split":
				if st.Splits == 0 || st.Splits >= st.Ranges {
					t.Fatalf("seed %d split: %d split passes for %d ranges, the memo never answered", seed, st.Splits, st.Ranges)
				}
			case "widened":
				if exact == 0 || st.Splits == 0 {
					t.Fatalf("seed %d widened: %d exact and %d split passes, want both", seed, exact, st.Splits)
				}
			}
			if arm.name != "sparse" && int(exact) >= full.calls {
				t.Fatalf("seed %d %s: %d θ asked, the full path asked %d: the range never decided", seed, arm.name, exact, full.calls)
			}
		}
	}
}
