package main

import (
	"path/filepath"
	"runtime"
	"testing"

	"watter/internal/benchfmt"
)

// One producer end to end: what -benchsweep writes reloads through the
// validating reader, says which cores it was recorded on, carries the kinds
// the producer declared, and gates clean against itself.
func TestBenchSweepReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	if err := runBenchSweep(path, 0.1, 1, 0, true); err != nil {
		t.Fatal(err)
	}
	rep, err := benchfmt.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tool != "watterbench -benchsweep" || rep.Scale != 0.1 || rep.Seed != 1 ||
		rep.GOMAXPROCS != runtime.GOMAXPROCS(0) || rep.GoVersion != runtime.Version() {
		t.Errorf("header %+v", rep.Header)
	}
	if len(rep.Rows) != 1 || rep.Rows[0].Name != "CDC" {
		t.Fatalf("rows %+v, want the one CDC row", rep.Rows)
	}
	kinds := map[string]benchfmt.Kind{}
	for _, m := range rep.Rows[0].Metrics {
		kinds[m.Name] = m.Kind
	}
	for name, want := range map[string]benchfmt.Kind{
		"speedup":               benchfmt.KindFloor,
		"metrics_bit_identical": benchfmt.KindIdentical,
		"jobs":                  benchfmt.KindInfo,
	} {
		if kinds[name] != want {
			t.Errorf("%s has kind %q, want %q", name, kinds[name], want)
		}
	}
	checks, err := benchfmt.Gate(rep, rep)
	if err != nil || len(checks) != 2 {
		t.Fatalf("Gate = %+v, %v; want the floor and the guarantee", checks, err)
	}
	for _, c := range checks {
		if !c.OK {
			t.Errorf("%s.%s failed against itself: %s", c.Row, c.Metric, c.Note)
		}
	}
}
