package main

import (
	"fmt"
	"path/filepath"
	"testing"

	"watter/internal/benchfmt"
)

// TestJournalPinnedToBaseline reruns the default scenarios — the
// configuration the committed BENCH_load.json records — and requires every
// order-stream and event-journal fingerprint to equal the committed one. The
// hashes are info metrics that benchgate never compares, so without this test
// a change to any event payload, or to the order of events, would pass CI
// silently. A deliberate change to the event stream re-records the baseline.
// The scenarios run at the default K = 1 and again with the insert prewarm
// on two goroutines: K must change neither an event payload nor the order
// of events, so both reproduce the same committed hashes.
func TestJournalPinnedToBaseline(t *testing.T) {
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { journalPinnedToBaseline(t, shards) })
	}
}

func journalPinnedToBaseline(t *testing.T, shards int) {
	base, err := benchfmt.Read(filepath.Join("..", "..", "BENCH_load.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The flag defaults, minus the rate search (it records no hash).
	const (
		city                = "cdc"
		workers             = 60
		horizon, tick, rate = 300.0, 10.0, 1.0
		buffer, drain       = 256, 64
		bpBuffer, bpDrain   = 64, 8
		scale               = 1.0
		seed                = int64(1)
	)
	path := filepath.Join(t.TempDir(), "BENCH_load.json")
	if err := run(path, true, city, workers, horizon, tick, seed, rate, buffer, drain,
		bpBuffer, bpDrain, shards, scale, false, 0, 0, 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	rerun, err := benchfmt.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if base.Seed != seed || base.Scale != scale {
		t.Fatalf("baseline recorded seed %d scale %v; this test reruns seed %d scale %v", base.Seed, base.Scale, seed, scale)
	}
	value := func(r *benchfmt.Report, row, metric string) any {
		for _, rw := range r.Rows {
			for _, m := range rw.Metrics {
				if rw.Name == row && m.Name == metric {
					return m.Value
				}
			}
		}
		return nil
	}
	// The committed run must be this configuration, or the hashes mean nothing.
	for _, c := range []struct {
		row, metric string
		want        any
	}{
		{"run", "city_profile", "CDC"},
		{"run", "workers", float64(workers)},
		{"run", "horizon_s", horizon},
		{"run", "tick_s", tick},
		{"poisson", "rate", rate},
		{"poisson", "buffer", float64(buffer)},
		{"poisson", "drain_per_tick", float64(drain)},
		{"backpressure", "buffer", float64(bpBuffer)},
		{"backpressure", "drain_per_tick", float64(bpDrain)},
	} {
		if got := value(base, c.row, c.metric); got != c.want {
			t.Fatalf("baseline %s.%s = %v, this test reruns %v", c.row, c.metric, got, c.want)
		}
	}
	pinned := 0
	for _, row := range base.Rows {
		for _, metric := range []string{"stream_hash", "journal_hash"} {
			want := value(base, row.Name, metric)
			if want == nil {
				continue
			}
			pinned++
			if got := value(rerun, row.Name, metric); got != want {
				t.Errorf("%s.%s = %v, committed %v", row.Name, metric, got, want)
			}
		}
	}
	if pinned != 8 {
		t.Fatalf("pinned %d hashes, want 8 (four scenarios, two each)", pinned)
	}
}
