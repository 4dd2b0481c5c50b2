package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeScale shrinks every workload so all four run in a few seconds;
// numbers at this scale are not comparable with the benchmark's.
const smokeScale = 0.03

// exactEndToEnd and exactPerLayer are the metrics that are pure functions
// of the seed: counts and decision quality, no clock. Shard counters are
// absent: speculation races the commit pass, only the decisions are fixed.
var (
	exactEndToEnd = []string{"service_rate", "extra_time_per_order_s", "unified_cost_per_order_s"}
	exactPerLayer = []string{
		"platform.events_per_order",
		"pool.cache_hit_rate", "pool.plans_per_order", "pool.plans_avoided_per_order", "pool.materialized_per_order",
		"pool.edges_per_insert", "pool.peak_len",
		"route.feasible_share2", "route.feasible_share3", "route.feasible_share4", "route.legstore_hit_rate",
		"roadnet.cost_calls_per_order", "gridindex.probe_found_share",
		"sim.mean_group_size", "sim.groups_per_order",
	}
)

func smoke(t *testing.T, s spec, seed int64, trace bool) *report {
	t.Helper()
	opt := options{seed: seed, seconds: 0, trace: trace, scale: smokeScale}
	if trace {
		opt.traceOut = filepath.Join(t.TempDir(), "spans.json")
	}
	rep, err := measure(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
		t.Fatalf("%s seed %d trace %v: %d of %d operations failed: %v", s.name, seed, trace, rep.Failed, rep.Attempted, rep.Failures)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	if len(rep.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics emitted, %d declared", s.name, len(rep.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := rep.Metrics[d.name]
		if !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", s.name, d.name, v, ok, d.unit)
		}
		if !trace && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", s.name, d.name, v.Value)
		}
	}
	return rep
}

func sameValues(t *testing.T, what string, names []string, a, b *report, want bool) {
	t.Helper()
	differ := 0
	for _, n := range names {
		if a.Metrics[n].Value != b.Metrics[n].Value {
			differ++
			if want {
				t.Errorf("%s: %s = %v, then %v", what, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
	}
	if !want && differ == 0 {
		t.Errorf("%s: every exact metric agrees, so the seed does not reach the inputs", what)
	}
}

// TestSmoke runs every workload end to end at test scale: all declared
// metrics come out finite, every output check passes, the exact metrics
// repeat for a seed and move with it, and the trace is well formed.
func TestSmoke(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			a, b, c := smoke(t, s, 1, false), smoke(t, s, 1, false), smoke(t, s, 2, false)
			sameValues(t, "same seed", exactEndToEnd, a, b, true)
			sameValues(t, "seeds 1 and 2", exactEndToEnd, a, c, false)
			if got := len(a.SetupS); got != setupRuns {
				t.Errorf("%d set-ups timed, want %d", got, setupRuns)
			}

			ta, tb := smoke(t, s, 1, true), smoke(t, s, 1, true)
			sameValues(t, "same seed, traced", exactPerLayer, ta, tb, true)
			// Nesting is checked at run time (a bad span is a failed
			// operation); here, how much of the traced wall the roots
			// explain. Full-size runs read 0.99; at test scale a check of an
			// empty pool takes a microsecond, against which the tracer's
			// own 60 ns a span shows.
			if cov := ta.Metrics["trace.root_coverage"].Value; cov < 0.9 || cov > 1 {
				t.Errorf("trace.root_coverage = %v, want 0.9..1", cov)
			}
			for _, share := range []string{"core.on_order_share", "core.on_tick_share"} {
				if v := ta.Metrics[share].Value; v <= 0 || v >= 1 {
					t.Errorf("%s = %v, want inside (0, 1)", share, v)
				}
			}
			if s.traceShards > 1 && ta.Metrics["shard.speedup_vs_k1"].Value <= 0 {
				t.Errorf("shard.speedup_vs_k1 missing although the traced run has a K=%d arm", s.traceShards)
			}
		})
	}
}

// TestSpansNest checks the tracer's own arithmetic on a hand-made trace:
// self time is a span's duration minus its children's, and a child that
// leaves its parent is reported.
func TestSpansNest(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "child", Parent: 0, Start: 10, End: 40},
		{Name: "child", Parent: 0, Start: 50, End: 70},
	}}
	if bad := tr.checkNesting(); len(bad) != 0 {
		t.Errorf("well-formed trace reported: %v", bad)
	}
	if self := tr.selfTimes("root"); len(self) != 1 || self[0] != 50 {
		t.Errorf("root self time = %v, want [50ns]", self)
	}
	tr.spans[2].End = 120
	if bad := tr.checkNesting(); len(bad) != 1 {
		t.Errorf("child leaving its parent reported as %v", bad)
	}
}

// TestHarnessMatchesReplay pins the claim the harness rests on: firing
// the due checks with Tick before each Submit decides exactly what
// Platform.Replay decides.
func TestHarnessMatchesReplay(t *testing.T) {
	s, _ := specByName("cdc_timeout")
	w, err := buildWorkload(s, 3, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := runRepeat(w, 0, 1, nil)
	if err != nil || explicit.failed != 0 {
		t.Fatal(err, explicit.failures)
	}
	alg, err := w.algorithm(1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.newPlatform(0, w.city.Net, alg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Replay(w.orders[0])
	if err != nil {
		t.Fatal(err)
	}
	if *m != explicit.metrics {
		t.Errorf("explicit ticks decided differently from Replay:\n got %+v\nwant %+v", explicit.metrics, *m)
	}
}

// TestCompare exercises -compare on result files: equal sides pass, a
// metric worse than its bound fails and is named.
func TestCompare(t *testing.T) {
	s, _ := specByName("cdc_timeout")
	rep := smoke(t, s, 1, false)
	a, b := t.TempDir(), t.TempDir()
	if err := writeReport(a, rep); err != nil {
		t.Fatal(err)
	}
	if err := writeReport(b, rep); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if ok, err := compareResults(&out, a, b); err != nil || !ok {
		t.Fatalf("identical sides: ok=%v err=%v\n%s", ok, err, out.String())
	}

	slow := rep.Metrics["tick_p50_ms"]
	slow.Value *= 1.5
	rep.Metrics["tick_p50_ms"] = slow
	if err := writeReport(b, rep); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	ok, err := compareResults(&out, filepath.Join(a, "cdc_timeout-seed1-trace0.json"), b)
	if err != nil || ok {
		t.Fatalf("tick_p50_ms 1.5x worse: ok=%v err=%v", ok, err)
	}
	if !strings.Contains(out.String(), "WORSE") || strings.Count(out.String(), "WORSE") != 1 {
		t.Errorf("want exactly tick_p50_ms flagged:\n%s", out.String())
	}
	if _, err := compareResults(&out, a, filepath.Join(os.TempDir(), "no-such-results")); err == nil {
		t.Error("a missing side must be an error")
	}
}
