package exp

import (
	"math"
	"reflect"
	"testing"

	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/sim"
)

// initObserver registers its own observer on the Env at Init, the way
// mdp.Collector does, before handing over to the algorithm.
type initObserver struct {
	sim.Algorithm
	seen []sim.Event
}

func (a *initObserver) Init(env *sim.Env) {
	env.Observe(func(ev sim.Event) { a.seen = append(a.seen, ev) })
	a.Algorithm.Init(env)
}

// TestEventsMetricsLockstep: for all five algorithms the event stream is the
// metrics, record by record. Folding the observed events in order must give
// the final Metrics bit for bit — the served and rejected counts and every
// floating-point sum the extra-time and unified-cost metrics are built from —
// and an observer an algorithm registers on the Env at Init must see exactly
// the sequence the platform's WithObserver callback sees.
func TestEventsMetricsLockstep(t *testing.T) {
	r := NewRunner()
	p := smallParams()
	s, err := r.Setup(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range AlgNames {
		alg, err := r.Build(name, p)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		wrapped := &initObserver{Algorithm: alg}
		var tapped []sim.Event
		plat, err := platform.New(s.City.Net, s.Fleet(), append(s.Options(false),
			platform.WithAlgorithm(wrapped),
			platform.WithObserver(func(ev platform.Event) { tapped = append(tapped, ev) }),
		)...)
		if err != nil {
			t.Fatalf("platform.New(%s): %v", name, err)
		}
		m, err := plat.Replay(s.Orders)
		if err != nil {
			t.Fatalf("Replay(%s): %v", name, err)
		}
		if m.Served == 0 || m.Rejected == 0 {
			t.Fatalf("%s: degenerate run (%d served / %d rejected), lockstep is weak", name, m.Served, m.Rejected)
		}

		var f sim.Metrics
		for _, ev := range tapped {
			switch e := ev.(type) {
			case sim.OrderAdmitted:
				f.Total++
			case sim.GroupDispatched:
				for _, rec := range e.Orders {
					f.Served++
					f.ResponseSum += rec.Response
					f.DetourSum += rec.Detour
					f.ServedExtra += order.ExtraTime(rec.Detour, rec.Response)
				}
			case sim.OrderRejected:
				f.Rejected++
				f.PenaltySum += e.Penalty
				f.RejectUnified += e.UnifiedPenalty
			}
		}
		if f.Total != m.Total || f.Served != m.Served || f.Rejected != m.Rejected {
			t.Fatalf("%s: events count total/served/rejected %d/%d/%d, metrics %d/%d/%d",
				name, f.Total, f.Served, f.Rejected, m.Total, m.Served, m.Rejected)
		}
		for _, c := range []struct {
			field         string
			folded, final float64
		}{
			{"ResponseSum", f.ResponseSum, m.ResponseSum},
			{"DetourSum", f.DetourSum, m.DetourSum},
			{"ServedExtra", f.ServedExtra, m.ServedExtra},
			{"PenaltySum", f.PenaltySum, m.PenaltySum},
			{"RejectUnified", f.RejectUnified, m.RejectUnified},
		} {
			if math.Float64bits(c.folded) != math.Float64bits(c.final) {
				t.Fatalf("%s: %s folded from events = %v, metrics = %v", name, c.field, c.folded, c.final)
			}
		}
		if !reflect.DeepEqual(wrapped.seen, tapped) {
			t.Fatalf("%s: the observer registered at Init saw %d events, the platform's WithObserver %d, and they differ",
				name, len(wrapped.seen), len(tapped))
		}
	}
}
