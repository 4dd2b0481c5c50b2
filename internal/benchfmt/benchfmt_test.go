package benchfmt

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// sample is a report with one metric of every kind, in a row order and a
// metric order that are both unsorted.
func sample() *Report {
	r := &Report{Header: Header{Tool: "t", Scale: 1, GOMAXPROCS: 2, Seed: 1, GoVersion: "go1.24"}}
	r.Add("metro",
		Floor("speedup", "x", 10),
		Identical("same", true),
		Ceiling("overhead", "x", 2),
		Info("orders", "count", 900),
		Text("hash", "392b6bbe2df2396b"),
	)
	r.Add("city", Identical("same", true))
	return r
}

func set(r *Report, row, metric string, v any) { r.row(row).metric(metric).Value = v }

func TestGate(t *testing.T) {
	cases := []struct {
		name   string
		edit   func(base, fresh *Report)
		refuse string   // substrings the refusal must carry, comma-separated; "" = not refused
		failed []string // row.metric of every check that must fail
	}{
		{name: "unchanged"},
		{name: "info is never compared", edit: func(_, f *Report) {
			set(f, "metro", "orders", 5.0)
			set(f, "metro", "hash", "0000000000000000")
		}},
		{name: "header provenance is ignored", edit: func(_, f *Report) {
			f.Tool, f.Seed, f.GoVersion, f.Revision = "u", 9, "go1.99", "abc+dirty"
		}},
		{name: "false identical with a baseline row", edit: func(_, f *Report) { set(f, "city", "same", false) },
			failed: []string{"city.same"}},
		{name: "false identical where the baseline already was", edit: func(b, f *Report) {
			set(b, "city", "same", false)
			set(f, "city", "same", false)
		}, failed: []string{"city.same"}},
		{name: "false identical in a row the baseline lacks", edit: func(_, f *Report) {
			f.Add("new", Identical("same", false))
		}, failed: []string{"new.same"}},
		{name: "fresh row the baseline lacks", edit: func(_, f *Report) {
			f.Add("new", Identical("same", true), Floor("speedup", "x", 0.01), Ceiling("overhead", "x", 1e9))
		}},
		{name: "fresh metric the baseline lacks", edit: func(_, f *Report) {
			m := f.row("city")
			m.Metrics = append(m.Metrics, Floor("speedup", "x", 0.01))
		}},
		{name: "false identical metric the baseline lacks", edit: func(_, f *Report) {
			m := f.row("city")
			m.Metrics = append(m.Metrics, Identical("also", false))
		}, failed: []string{"city.also"}},
		{name: "floor at 0.59x", edit: func(_, f *Report) { set(f, "metro", "speedup", 5.9) },
			failed: []string{"metro.speedup"}},
		{name: "floor at 0.61x", edit: func(_, f *Report) { set(f, "metro", "speedup", 6.1) }},
		{name: "ceiling at 1.51x", edit: func(_, f *Report) { set(f, "metro", "overhead", 3.02) },
			failed: []string{"metro.overhead"}},
		{name: "ceiling at 1.49x", edit: func(_, f *Report) { set(f, "metro", "overhead", 2.98) }},
		{name: "missing info metric", edit: func(_, f *Report) {
			m := f.row("metro")
			m.Metrics = m.Metrics[:3]
		}},

		{name: "scale mismatch", edit: func(_, f *Report) { f.Scale = 0.5 }, refuse: "scale,0.5"},
		{name: "gomaxprocs mismatch", edit: func(_, f *Report) { f.GOMAXPROCS = 4 }, refuse: "gomaxprocs,4"},
		{name: "kind disagreement", edit: func(_, f *Report) { f.row("metro").metric("speedup").Kind = KindCeiling },
			refuse: "metro,speedup,floor,ceiling"},
		{name: "info in the baseline, gated in the fresh report", edit: func(_, f *Report) {
			f.row("metro").metric("orders").Kind = KindFloor
		}, refuse: "metro,orders,info,floor"},
		{name: "unknown kind", edit: func(_, f *Report) { f.row("metro").metric("speedup").Kind = "higher" },
			refuse: "fresh,metro,speedup,unknown kind,higher"},
		{name: "unknown kind in the baseline", edit: func(b, _ *Report) { b.row("metro").metric("orders").Kind = "" },
			refuse: "baseline,metro,orders,unknown kind"},
		{name: "duplicate row", edit: func(_, f *Report) { f.Add("city", Identical("same", true)) },
			refuse: "fresh,duplicate row,city"},
		{name: "duplicate metric", edit: func(b, _ *Report) {
			m := b.row("city")
			m.Metrics = append(m.Metrics, Identical("same", true))
		}, refuse: "baseline,city,duplicate metric,same"},
		{name: "missing row", edit: func(_, f *Report) { f.Rows = f.Rows[:1] }, refuse: "row,city,missing"},
		{name: "missing identical metric", edit: func(_, f *Report) {
			m := f.row("metro")
			m.Metrics = append(m.Metrics[:1], m.Metrics[2:]...)
		}, refuse: "metro,identical,same,missing"},
		{name: "missing floor metric", edit: func(_, f *Report) {
			m := f.row("metro")
			m.Metrics = m.Metrics[1:]
		}, refuse: "metro,floor,speedup,missing"},
		{name: "identical holding a number", edit: func(_, f *Report) { set(f, "city", "same", 1.0) },
			refuse: "city,same,identical"},
		{name: "floor holding a negative", edit: func(b, _ *Report) { set(b, "metro", "speedup", -1.0) },
			refuse: "metro,speedup,floor"},
		{name: "no rows", edit: func(_, f *Report) { f.Rows = nil }, refuse: "fresh,rows"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base, fresh := sample(), sample()
			if tc.edit != nil {
				tc.edit(base, fresh)
			}
			checks, err := Gate(base, fresh)
			if tc.refuse != "" {
				if err == nil {
					t.Fatalf("not refused; checks: %+v", checks)
				}
				for _, want := range strings.Split(tc.refuse, ",") {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("refusal %q does not name %q", err, want)
					}
				}
				return
			}
			if err != nil {
				t.Fatalf("refused: %v", err)
			}
			var failed []string
			for _, c := range checks {
				if !c.OK {
					failed = append(failed, c.Row+"."+c.Metric)
				}
			}
			if !reflect.DeepEqual(failed, tc.failed) {
				t.Errorf("failed checks %v, want %v\n%+v", failed, tc.failed, checks)
			}
		})
	}
}

// The walk makes one check per gated metric, never one for info, and reports
// them sorted by row then metric whatever order the producer wrote.
func TestGateChecksAreSortedAndStable(t *testing.T) {
	var got []string
	for run := 0; run < 2; run++ {
		checks, err := Gate(sample(), sample())
		if err != nil {
			t.Fatal(err)
		}
		line := ""
		for _, c := range checks {
			line += c.Row + "." + c.Metric + ":" + string(c.Kind) + " " + c.Note + "\n"
		}
		got = append(got, line)
	}
	if got[0] != got[1] {
		t.Errorf("two walks differ:\n%s\n%s", got[0], got[1])
	}
	var names []string
	for _, l := range strings.Split(strings.TrimSpace(got[0]), "\n") {
		names = append(names, l[:strings.Index(l, " ")])
	}
	want := []string{"city.same:identical", "metro.overhead:ceiling", "metro.same:identical", "metro.speedup:floor"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("checks %v, want %v", names, want)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rep := New("tool -mode", 0.25, 7)
	if rep.GOMAXPROCS != runtime.GOMAXPROCS(0) || rep.GoVersion != runtime.Version() {
		t.Errorf("header %+v does not record this process", rep.Header)
	}
	rep.Rows = sample().Rows
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := rep.Write(a); err != nil {
		t.Fatal(err)
	}
	back, err := Read(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rep) {
		t.Errorf("read back\n%+v\nwrote\n%+v", back, rep)
	}
	if err := back.Write(b); err != nil {
		t.Fatal(err)
	}
	ablob, _ := os.ReadFile(a)
	bblob, _ := os.ReadFile(b)
	if string(ablob) != string(bblob) {
		t.Errorf("re-written report differs:\n%s\n%s", ablob, bblob)
	}
	// One line per metric is the point of the hand-laid layout.
	if n := strings.Count(string(ablob), "\n      {\"name\":"); n != 6 {
		t.Errorf("%d metric lines, want 6:\n%s", n, ablob)
	}
}

func TestWriteRefusesAnInvalidReport(t *testing.T) {
	rep := sample()
	rep.Add("city", Identical("same", true))
	path := filepath.Join(t.TempDir(), "r.json")
	err := rep.Write(path)
	if err == nil || !strings.Contains(err.Error(), `duplicate row "city"`) {
		t.Errorf("Write = %v, want a duplicate-row refusal", err)
	}
	if _, statErr := os.Stat(path); statErr == nil {
		t.Error("the refused report was written anyway")
	}
}

func TestErrNamesFalseGuarantees(t *testing.T) {
	rep := sample()
	if err := rep.Err(); err != nil {
		t.Errorf("all guarantees hold, Err = %v", err)
	}
	set(rep, "city", "same", false)
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "city.same") || strings.Contains(err.Error(), "metro.same") {
		t.Errorf("Err = %v, want city.same alone", err)
	}
}

// Hand-edited files, one per way the old reader went wrong or a file can be
// malformed: each must be refused with the row or field named.
func TestReadRefuses(t *testing.T) {
	const head = `{"tool":"t","scale":1,"gomaxprocs":2,"seed":1,"go_version":"go1.24","rows":`
	cases := []struct{ name, blob, want string }{
		{"row that is not an object", head + `[{"name":"a","metrics":[]}, 7]}`, "rows"},
		{"two rows sharing a name", head + `[{"name":"a","metrics":[]},{"name":"a","metrics":[]}]}`, `duplicate row "a"`},
		{"unknown kind", head + `[{"name":"a","metrics":[{"name":"m","kind":"speedup","value":1}]}]}`, `unknown kind "speedup"`},
		{"guarantee that is not a boolean", head + `[{"name":"a","metrics":[{"name":"m","kind":"identical","value":"true"}]}]}`, `metric "m"`},
		{"flat pre-schema report", `{"city":"CDC","scale":1,"gomaxprocs":1,"speedup":0.99,"metrics_bit_identical":true}`, "unknown field"},
		{"no gomaxprocs", `{"tool":"t","scale":1,"rows":[{"name":"a","metrics":[]}]}`, "gomaxprocs"},
		{"truncated", head + `[{"name":"a"`, "unexpected EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_x.json")
			if err := os.WriteFile(path, []byte(tc.blob), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Read(path)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "BENCH_x.json") {
				t.Errorf("Read = %v, want the file and %q named", err, tc.want)
			}
		})
	}
	if _, err := Read(filepath.Join(t.TempDir(), "BENCH_absent.json")); err == nil || !strings.Contains(err.Error(), "BENCH_absent.json") {
		t.Errorf("Read of a missing file = %v, want the file named", err)
	}
}
