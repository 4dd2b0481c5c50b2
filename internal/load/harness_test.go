package load

import (
	"strings"
	"testing"

	"watter/internal/dataset"
)

func smallConfig() Config {
	return Config{
		Workers: 40,
		Seed:    3,
		Horizon: 300,
		Arrival: ArrivalSpec{Process: Poisson, Rate: 2, Seed: 3},
	}
}

// TestHarnessDeterminism is the PR's acceptance property: two consecutive
// runs of the same Config produce bit-identical order streams, decision
// journals, and therefore bit-identical results (with MeasureTime off the
// Result struct is comparable and must be equal field-for-field).
func TestHarnessDeterminism(t *testing.T) {
	for _, proc := range []ArrivalSpec{
		{Process: Poisson, Rate: 2, Seed: 3},
		{Process: Surge, Rate: 1.5, Seed: 3},
		{Process: Pareto, Rate: 2, Seed: 3},
	} {
		cfg := smallConfig()
		cfg.Arrival = proc
		a, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", proc.Process, err)
		}
		b, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: second run: %v", proc.Process, err)
		}
		if a.StreamHash != b.StreamHash {
			t.Fatalf("%s: order streams differ: %x vs %x", proc.Process, a.StreamHash, b.StreamHash)
		}
		if a.JournalHash != b.JournalHash {
			t.Fatalf("%s: decision journals differ: %x vs %x", proc.Process, a.JournalHash, b.JournalHash)
		}
		if *a != *b {
			t.Fatalf("%s: results differ:\n%+v\nvs\n%+v", proc.Process, *a, *b)
		}
		if a.Submitted == 0 || a.Served == 0 {
			t.Fatalf("%s: degenerate run: %+v", proc.Process, a)
		}
		if a.Pending != 0 {
			t.Fatalf("%s: %d orders left unresolved after drain", proc.Process, a.Pending)
		}
	}
}

// TestRunRefusesNegativeSizes: a negative fleet panicked sizing the
// fleet; it is an error naming the field.
func TestRunRefusesNegativeSizes(t *testing.T) {
	cfg := smallConfig()
	cfg.Horizon = 60
	cfg.Arrival = ArrivalSpec{Process: Poisson, Rate: 0.5, Seed: 1}
	cfg.Workers = -1
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Errorf("Workers = -1: err = %v, want an error naming Workers", err)
	}
}

// TestRetime pins the release/deadline rewrite.
func TestRetime(t *testing.T) {
	city := dataset.CDC().Build()
	orders := city.Orders(dataset.WorkloadConfig{Orders: 50, Seed: 9})
	times := make([]float64, 10)
	for i := range times {
		times[i] = float64(i) * 7
	}
	out := Retime(orders, times, 1.6)
	if len(out) != 10 {
		t.Fatalf("retimed %d orders, want 10", len(out))
	}
	for i, o := range out {
		if o.Release != times[i] {
			t.Fatalf("order %d release %v, want %v", i, o.Release, times[i])
		}
		if want := times[i] + 1.6*o.DirectCost; o.Deadline != want {
			t.Fatalf("order %d deadline %v, want %v", i, o.Deadline, want)
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("retimed order invalid: %v", err)
		}
	}
}

// TestSearchMaxRate runs a tiny deterministic bisection twice and checks
// the bracketing invariants plus run-to-run bit-identity.
func TestSearchMaxRate(t *testing.T) {
	base := Config{Seed: 5, Arrival: ArrivalSpec{Process: Poisson, Seed: 5}}
	a, err := SearchMaxRate(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SearchMaxRate(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxRate != b.MaxRate || len(a.Probes) != len(b.Probes) {
		t.Fatalf("rate search not deterministic: %v/%d vs %v/%d",
			a.MaxRate, len(a.Probes), b.MaxRate, len(b.Probes))
	}
	for i := range a.Probes {
		if a.Probes[i] != b.Probes[i] {
			t.Fatalf("probe %d differs: %+v vs %+v", i, a.Probes[i], b.Probes[i])
		}
	}
	if a.MaxRate < searchLo || a.MaxRate > searchHi {
		t.Fatalf("found rate %v outside bracket [%v, %v]", a.MaxRate, searchLo, searchHi)
	}
	// Every sustainable probe must sit at or below every unsustainable one
	// after bisection converges... not true in general for noisy systems,
	// but the reported MaxRate must itself have probed sustainable.
	found := false
	for _, p := range a.Probes {
		if p.Rate == a.MaxRate && p.Sustainable {
			found = true
		}
	}
	if !found {
		t.Fatalf("MaxRate %v was never probed sustainable: %+v", a.MaxRate, a.Probes)
	}
}
