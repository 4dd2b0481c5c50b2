package load

import (
	"strings"
	"testing"

	"watter/internal/dataset"
)

// TestQueueModelPinned pins the backpressure-onset definition against a
// hand-computed scenario: buffer 4, consumer draining 1 event per tick,
// two admits per tick plus the tick event itself (net +2 per tick).
//
//	tick 1: pushes at t=2, t=4, t=10   → depth 1,2,3   peak 3, no onset; drain → 2
//	tick 2: pushes at t=12, t=14, t=20 → depth 3,4,5   the t=20 push is the
//	        first to exceed the buffer → onset latches at 20; drain → 4
//
// The subtest is named for the constructor it builds the model with.
func TestQueueModelPinned(t *testing.T) {
	t.Run("NewQueueModel", queueModelPinned)
}

func queueModelPinned(t *testing.T) {
	q := NewQueueModel(4, 1)
	q.Push(2)
	q.Push(4)
	q.Push(10)
	if q.Onset() != -1 || q.Peak() != 3 {
		t.Fatalf("after tick-1 pushes: onset=%v peak=%d, want -1/3", q.Onset(), q.Peak())
	}
	q.Drain()
	if q.depth != 2 {
		t.Fatalf("after tick-1 drain: depth=%d, want 2", q.depth)
	}
	q.Push(12)
	q.Push(14)
	if q.Onset() != -1 {
		t.Fatalf("onset fired at depth<=buffer: %v", q.Onset())
	}
	q.Push(20)
	if q.Onset() != 20 {
		t.Fatalf("onset=%v, want 20 (first push beyond buffer 4)", q.Onset())
	}
	q.Drain()
	if q.depth != 4 || q.Peak() != 5 {
		t.Fatalf("after tick-2 drain: depth=%d peak=%d, want 4/5", q.depth, q.Peak())
	}
	// The onset is a latch: later drains never clear it.
	q.Drain()
	q.Drain()
	if q.Onset() != 20 {
		t.Fatalf("onset moved after draining: %v", q.Onset())
	}
	// Drain below zero clamps.
	big := NewQueueModel(10, 100)
	big.Push(1)
	big.Drain()
	if big.depth != 0 {
		t.Fatalf("drain went negative: %d", big.depth)
	}
}

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
// fleet, and a negative buffer or drain rate modelled a queue that
// saturated at the first event or grew on every drain; each is an error
// naming the field.
func TestRunRefusesNegativeSizes(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*Config)
	}{
		{"Workers", func(c *Config) { c.Workers = -1 }},
		{"Buffer", func(c *Config) { c.Buffer = -1 }},
		{"DrainPerTick", func(c *Config) { c.DrainPerTick = -1 }},
	} {
		cfg := smallConfig()
		cfg.Horizon = 60
		cfg.Arrival = ArrivalSpec{Process: Poisson, Rate: 0.5, Seed: 1}
		tc.set(&cfg)
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s = -1: err = %v, want an error naming %s", tc.field, err, tc.field)
		}
	}
}

// TestHarnessBackpressure checks the onset responds to the modelled
// consumer: an ample buffer never saturates, a tiny starved buffer does,
// and the onset time is deterministic.
func TestHarnessBackpressure(t *testing.T) {
	cfg := smallConfig()
	cfg.Buffer = 4096
	cfg.DrainPerTick = 4096
	ample, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ample.BackpressureOnset != -1 {
		t.Fatalf("ample buffer saturated at t=%v", ample.BackpressureOnset)
	}
	cfg.Buffer = 8
	cfg.DrainPerTick = 1
	starved, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if starved.BackpressureOnset < 0 {
		t.Fatal("starved buffer never saturated")
	}
	if starved.PeakQueueDepth <= cfg.Buffer {
		t.Fatalf("peak depth %d never exceeded buffer %d yet onset fired", starved.PeakQueueDepth, cfg.Buffer)
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.BackpressureOnset != starved.BackpressureOnset {
		t.Fatalf("onset not deterministic: %v vs %v", again.BackpressureOnset, starved.BackpressureOnset)
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
