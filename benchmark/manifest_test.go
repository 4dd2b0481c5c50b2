package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json; DisallowUnknownFields below makes any
// key outside the driver's schema a test failure.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestManifestMatchesBenchmark holds BENCHMARK.json to the driver's schema
// and to what the command emits: the same workloads, the same metrics,
// units, directions and bounds as the tables in metrics.go.
func TestManifestMatchesBenchmark(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(blob))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(blob, &top); err != nil {
		t.Fatal(err)
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(top))
	}
	var m manifest
	dec := json.NewDecoder(strings.NewReader(string(blob)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v, want [benchmark]", m.Paths)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is outside the allowed form", p)
		}
	}
	if !reflect.DeepEqual(m.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command = %v, want go run ./benchmark", m.Command)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", m.RunSeconds)
	}
	if def := flag.Lookup("seconds"); def != nil && def.DefValue != strconv.Itoa(m.RunSeconds) {
		t.Errorf("run_seconds = %d but -seconds defaults to %s", m.RunSeconds, def.DefValue)
	}
	// 4 + 22 runs per workload, each set-up + run_seconds, inside the
	// driver's 3420 s: leave at least a third of every run for set-up.
	if runs := 4 + 22*len(m.Workloads); float64(runs*m.RunSeconds) > 3420*2/3 {
		t.Errorf("%d runs of %d s leave no room for set-up inside 3420 s", runs, m.RunSeconds)
	}

	seen := make(map[string]bool)
	unique := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is outside [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}

	if n := len(m.Workloads); n < 2 || n > 4 || n != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented, want 2..4 and equal", n, len(specs))
	}
	for i, wl := range m.Workloads {
		unique("workload", wl.Name)
		if wl.Name != specs[i].name {
			t.Errorf("workload %d is %q, the command runs %q", i, wl.Name, specs[i].name)
		}
		if wl.Why == "" || len(wl.Why) > 200 || strings.Contains(wl.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, has %d", wl.Name, len(wl.Why))
		}
	}

	check := func(kind string, got []manifestMetric, want []metricDef, limit int, bounded bool) {
		if len(got) < 1 || len(got) > limit || len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, %d emitted, limit %d", kind, len(got), len(want), limit)
		}
		for i, g := range got {
			unique(kind, g.Name)
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s metric %d is %+v, the command emits %+v", kind, i, g, w)
			}
			if !unitRE.MatchString(g.Unit) {
				t.Errorf("%s: unit %q is outside the allowed form", g.Name, g.Unit)
			}
			if g.Better != "higher" && g.Better != "lower" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", g.Name)
			case bounded && g.Bound == nil:
				t.Errorf("%s: end-to-end metrics need a bound", g.Name)
			case bounded && (*g.Bound <= 0 || *g.Bound > 0.25 || *g.Bound != w.bound):
				t.Errorf("%s: bound %v, want %v in (0, 0.25]", g.Name, *g.Bound, w.bound)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, 16, true)
	check("per_layer", m.PerLayer, perLayer, 128, false)

	var setup *manifestMetric
	for i := range m.EndToEnd {
		if m.EndToEnd[i].Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Fatalf("end_to_end needs setup_s in s, lower is better; got %+v", setup)
	}
	for _, e := range m.EndToEnd {
		if *e.Bound > *setup.Bound {
			t.Errorf("%s has bound %v, above setup_s's %v: setup_s takes the largest", e.Name, *e.Bound, *setup.Bound)
		}
	}
}
