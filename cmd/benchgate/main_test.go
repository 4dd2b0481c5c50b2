package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"watter/internal/benchfmt"
)

const repoRoot = "../.."

// Every committed baseline loads through the validating reader, was recorded
// at scale 1 on two cores, and gates clean against itself; the gate makes at
// least 20 checks (load 18, sweep 2), and prints the same bytes twice.
func TestCommittedBaselinesGateCleanAgainstThemselves(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(repoRoot, "BENCH_*.json"))
	if err != nil || len(paths) != 2 {
		t.Fatalf("found %d committed reports (%v), want 2", len(paths), err)
	}
	for _, p := range paths {
		rep, err := benchfmt.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Scale != 1 || rep.GOMAXPROCS != 2 {
			t.Errorf("%s: scale %v gomaxprocs %d, want 1 and 2", p, rep.Scale, rep.GOMAXPROCS)
		}
		if err := rep.Err(); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
	var first, second bytes.Buffer
	if !run(repoRoot, repoRoot, &first) {
		t.Fatalf("the committed reports do not gate clean against themselves:\n%s", &first)
	}
	if n := strings.Count(first.String(), "\nok  ") + 1; n < 20 {
		t.Errorf("%d checks, want at least 20:\n%s", n, &first)
	}
	run(repoRoot, repoRoot, &second)
	if first.String() != second.String() {
		t.Errorf("two runs printed different bytes:\n%s\n%s", &first, &second)
	}
}

// copyReport puts an edited copy of a committed report into dir.
func copyReport(t *testing.T, name, dir string, edit func(*benchfmt.Report)) {
	t.Helper()
	rep, err := benchfmt.Read(filepath.Join(repoRoot, name))
	if err != nil {
		t.Fatal(err)
	}
	if edit != nil {
		edit(rep)
	}
	if err := rep.Write(filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
}

func TestRunFailsNamingTheFileOrField(t *testing.T) {
	cases := []struct {
		name  string
		fresh func(dir string)
		want  string
	}{
		{"missing fresh report", func(string) {}, "BENCH_sweep.json"},
		{"recorded on other cores", func(dir string) {
			copyReport(t, "BENCH_sweep.json", dir, func(r *benchfmt.Report) { r.GOMAXPROCS = 4 })
		}, "gomaxprocs mismatch"},
		{"recorded at another scale", func(dir string) {
			copyReport(t, "BENCH_sweep.json", dir, func(r *benchfmt.Report) { r.Scale = 0.5 })
		}, "scale mismatch"},
		{"guarantee false", func(dir string) {
			copyReport(t, "BENCH_sweep.json", dir, func(r *benchfmt.Report) {
				for i, m := range r.Rows[0].Metrics {
					if m.Kind == benchfmt.KindIdentical {
						r.Rows[0].Metrics[i].Value = false
					}
				}
			})
		}, "FAIL  BENCH_sweep.json"},
		{"not a report", func(dir string) {
			os.WriteFile(filepath.Join(dir, "BENCH_sweep.json"), []byte(`{"speedup": 1.5}`), 0o644)
		}, "unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseDir, freshDir := t.TempDir(), t.TempDir()
			copyReport(t, "BENCH_sweep.json", baseDir, nil)
			tc.fresh(freshDir)
			var out bytes.Buffer
			if run(baseDir, freshDir, &out) {
				t.Fatalf("passed:\n%s", &out)
			}
			if !bytes.Contains(out.Bytes(), []byte(tc.want)) {
				t.Errorf("output does not name %q:\n%s", tc.want, &out)
			}
		})
	}
	var out bytes.Buffer
	if empty := t.TempDir(); run(empty, repoRoot, &out) || !bytes.Contains(out.Bytes(), []byte(empty)) {
		t.Errorf("a baseline directory with no reports passed or went unnamed:\n%s", &out)
	}
}
