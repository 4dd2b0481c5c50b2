package exp

import "testing"

// TestProxyCellAggregatesStandaloneRuns pins the multi-city row's
// semantics: the aggregate of a cities=N cell is exactly the sum of N
// standalone single-city cells at the derived seeds — the front tier adds
// routing, not interference.
func TestProxyCellAggregatesStandaloneRuns(t *testing.T) {
	r := NewRunner()
	p := smallParams()
	p.Orders = 150
	p.Workers = 15
	p.NumCities = 3

	for _, name := range []string{"WATTER-online", "GDP"} {
		multi, err := r.RunOne(name, p)
		if err != nil {
			t.Fatal(err)
		}
		var wantTotal, wantServed, wantRejected int
		var wantExtra float64
		for i := 0; i < p.NumCities; i++ {
			pi := p
			pi.NumCities = 0
			pi.Seed = p.Seed + int64(i)*9973
			solo, err := r.RunOne(name, pi)
			if err != nil {
				t.Fatal(err)
			}
			wantTotal += solo.Metrics.Total
			wantServed += solo.Metrics.Served
			wantRejected += solo.Metrics.Rejected
			wantExtra += solo.Metrics.ExtraTime()
		}
		m := multi.Metrics
		if m.Total != wantTotal || m.Served != wantServed || m.Rejected != wantRejected {
			t.Fatalf("%s: aggregate ledger %d/%d/%d, standalone sum %d/%d/%d",
				name, m.Total, m.Served, m.Rejected, wantTotal, wantServed, wantRejected)
		}
		if m.ExtraTime() != wantExtra {
			t.Fatalf("%s: aggregate extra time %v, standalone sum %v", name, m.ExtraTime(), wantExtra)
		}
	}
}

// TestProxyCellDeterministic pins replicate stability: the same multi-city
// cell run twice yields identical deterministic metrics.
func TestProxyCellDeterministic(t *testing.T) {
	r := NewRunner()
	p := smallParams()
	p.Orders = 150
	p.Workers = 15
	p.NumCities = 2
	a, err := r.RunOne("WATTER-timeout", p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.RunOne("WATTER-timeout", p)
	if err != nil {
		t.Fatal(err)
	}
	ma, mb := *a.Metrics, *b.Metrics
	ma.DecisionSeconds, mb.DecisionSeconds = 0, 0
	if ma != mb {
		t.Fatalf("multi-city cell not deterministic:\na: %+v\nb: %+v", ma, mb)
	}
}
