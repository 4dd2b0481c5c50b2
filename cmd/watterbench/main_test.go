package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"watter/internal/dataset"
)

// The producer end to end: what -benchsweep writes reloads through readRow,
// says which settings it was recorded under, and passes against itself.
func TestBenchSweepReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	base, err := scaled(dataset.CDC(), 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := runBenchSweep(path, base, 0.1, 0, true); err != nil {
		t.Fatal(err)
	}
	row, err := readRow(path)
	if err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	if row.GOMAXPROCS != procs || row.Scale != 0.1 || row.Seed != 1 || row.Parallel != procs ||
		row.GoVersion != runtime.Version() || row.Jobs != 16 || row.Cells != 8 || !row.MetricsBitIdentical {
		t.Errorf("row %+v", row)
	}
	if err := check(row, row); err != nil {
		t.Error(err)
	}
}

// The committed baseline is in the writer's form, was recorded at scale 1
// with two cores and two workers, and passes against itself.
func TestCommittedRowPassesAgainstItself(t *testing.T) {
	const path = "../../BENCH_sweep.json"
	row, err := readRow(path)
	if err != nil {
		t.Fatal(err)
	}
	if row.Scale != 1 || row.GOMAXPROCS != 2 || row.Parallel != 2 {
		t.Errorf("scale %v gomaxprocs %d parallel %d, want 1, 2 and 2", row.Scale, row.GOMAXPROCS, row.Parallel)
	}
	if err := check(row, row); err != nil {
		t.Error(err)
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if blob, _ := json.MarshalIndent(row, "", "  "); string(committed) != string(blob)+"\n" {
		t.Errorf("%s is not in the writer's form:\n%s", path, committed)
	}
}

func TestRecordChecksTheRow(t *testing.T) {
	base := sweepRow{GOMAXPROCS: 2, Scale: 1, Seed: 1, Parallel: 2, GoVersion: "go1.24.0",
		Jobs: 16, Cells: 8, SequentialSeconds: 1.5, ParallelSeconds: 1, Speedup: 1.5, MetricsBitIdentical: true}
	baseFile, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	floor := floorFrac * base.Speedup
	cases := []struct {
		name string
		file string // the baseline's bytes; "" for none
		// path, when set, replaces the temporary file path.
		path func(dir string) string
		edit func(*sweepRow) // the fresh row's departure from base
		want string          // a substring of the error; "" for a pass
	}{
		{name: "no baseline"},
		{name: "no baseline, not bit-identical", edit: func(r *sweepRow) { r.MetricsBitIdentical = false }, want: "metrics_bit_identical"},
		{name: "the baseline itself", file: string(baseFile)},
		{name: "at the floor", file: string(baseFile), edit: func(r *sweepRow) { r.Speedup = floor }},
		{name: "one ulp below the floor", file: string(baseFile),
			edit: func(r *sweepRow) { r.Speedup = math.Nextafter(floor, 0) }, want: "below the floor"},
		{name: "not bit-identical", file: string(baseFile), edit: func(r *sweepRow) { r.MetricsBitIdentical = false }, want: "metrics_bit_identical"},
		{name: "baseline not bit-identical", file: strings.Replace(string(baseFile), `"metrics_bit_identical": true`, `"metrics_bit_identical": false`, 1),
			want: "baseline's metrics_bit_identical"},
		{name: "other gomaxprocs", file: string(baseFile), edit: func(r *sweepRow) { r.GOMAXPROCS = 4 }, want: "gomaxprocs is 2"},
		{name: "other scale", file: string(baseFile), edit: func(r *sweepRow) { r.Scale = 0.5 }, want: "scale is 1"},
		{name: "other seed", file: string(baseFile), edit: func(r *sweepRow) { r.Seed = 2 }, want: "seed is 1"},
		{name: "other parallel", file: string(baseFile), edit: func(r *sweepRow) { r.Parallel = 4 }, want: "parallel is 2"},
		{name: "fresh NaN speedup", file: string(baseFile), edit: func(r *sweepRow) { r.Speedup = math.NaN() }, want: "NaN"},
		{name: "unknown field", file: `{"tool": "watterbench -benchsweep", "speedup": 1.5}`, want: "unknown field"},
		{name: "missing directory", path: func(dir string) string {
			return filepath.Join(dir, "absent", "BENCH_sweep.json")
		}, want: "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "BENCH_sweep.json")
			if tc.path != nil {
				path = tc.path(dir)
			} else if tc.file != "" {
				if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			fresh := base
			fresh.Speedup = 1.6
			if tc.edit != nil {
				tc.edit(&fresh)
			}
			var out bytes.Buffer
			err := record(path, fresh, &out)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("refused: %v", err)
			case tc.want != "" && err == nil:
				t.Fatalf("passed, want an error naming %q", tc.want)
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("error %q does not name %q", err, tc.want)
			}
			if !strings.Contains(out.String(), "peedup") {
				t.Errorf("the fresh row was not printed: %q", &out)
			}
			if tc.path != nil {
				return
			}
			want := tc.file
			if tc.want == "" || tc.file == "" {
				blob, _ := json.MarshalIndent(fresh, "", "  ")
				want = string(blob) + "\n"
			}
			if got, _ := os.ReadFile(path); string(got) != want {
				t.Errorf("file holds\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// readRow takes only a whole, known row with a positive speedup.
func TestReadRowRefuses(t *testing.T) {
	good := `{"gomaxprocs": 2, "scale": 1, "speedup": 1.5, "metrics_bit_identical": true}`
	for _, tc := range []struct{ name, file, want string }{
		{"flat pre-schema report", `{"city":"CDC","scale":1,"gomaxprocs":1,"speedup":0.99,"metrics_bit_identical":true}`, `unknown field "city"`},
		{"truncated", good[:40], "unexpected EOF"},
		{"trailing data", good + "{}", "trailing data"},
		{"NaN speedup", strings.Replace(good, "1.5", "NaN", 1), "invalid character"},
		{"no speedup", `{"gomaxprocs": 2}`, "speedup 0 is not positive"},
		{"zero speedup", `{"speedup": 0}`, "speedup 0 is not positive"},
		{"negative speedup", `{"speedup": -1.5}`, "speedup -1.5 is not positive"},
		{"unreadable file", "", "is a directory"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
			var err error
			if tc.file == "" {
				err = os.Mkdir(path, 0o755)
			} else {
				err = os.WriteFile(path, []byte(tc.file), 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := readRow(path); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
	if _, err := readRow(filepath.Join(t.TempDir(), "BENCH_sweep.json")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a missing file gave %v, want fs.ErrNotExist", err)
	}
}

// What record writes, readRow reads back bit for bit, floats included.
func TestRecordWritesWhatReadRowReads(t *testing.T) {
	row := sweepRow{GOMAXPROCS: 3, Scale: 0.1 + 0.2, Seed: -7, Parallel: 5, GoVersion: "go1.24.0",
		Jobs: 16, Cells: 8, SequentialSeconds: 1.0 / 3, ParallelSeconds: math.SmallestNonzeroFloat64,
		Speedup: math.MaxFloat64, MetricsBitIdentical: true}
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	if err := record(path, row, io.Discard); err != nil {
		t.Fatal(err)
	}
	got, err := readRow(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != row {
		t.Errorf("read back %+v, wrote %+v", got, row)
	}
}

// The command end to end against a baseline it must refuse: it fails naming
// the field, and leaves the baseline as it was.
func TestBenchSweepFailsNamingTheField(t *testing.T) {
	base, err := scaled(dataset.CDC(), 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	procs := runtime.GOMAXPROCS(0)
	// speedup 0.01 sets a floor any run clears, so only the named field
	// fails; one worker keeps the runs off the other tests' cores.
	row := sweepRow{GOMAXPROCS: procs, Scale: 0.1, Seed: 1, Parallel: 1, Speedup: 0.01, MetricsBitIdentical: true}
	blob := func(edit func(*sweepRow)) string {
		r := row
		edit(&r)
		b, _ := json.MarshalIndent(r, "", "  ")
		return string(b) + "\n"
	}
	for _, tc := range []struct{ name, file, want string }{
		{"recorded on other cores", blob(func(r *sweepRow) { r.GOMAXPROCS = procs + 1 }), "gomaxprocs"},
		{"recorded at another scale", blob(func(r *sweepRow) { r.Scale = 0.5 }), "scale"},
		{"guarantee false", blob(func(r *sweepRow) { r.MetricsBitIdentical = false }), "metrics_bit_identical"},
		{"not a report", `{"tool": "watterbench -benchsweep", "scale": 1, "gomaxprocs": 2, "rows": []}`, "unknown field"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			err := runBenchSweep(path, base, 0.1, 1, true)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one naming %q", err, tc.want)
			}
			if got, _ := os.ReadFile(path); string(got) != tc.file {
				t.Errorf("the baseline was overwritten:\n%s", got)
			}
		})
	}
}

// Both paths share one guard: a scale leaving fewer than 10 orders or no
// worker is refused before anything runs.
func TestScaleTooSmall(t *testing.T) {
	for _, tc := range []struct {
		name  string
		city  dataset.Profile
		scale float64
		ok    bool
	}{
		{"benchsweep at 0.0001 (no orders)", dataset.CDC(), 0.0001, false},
		{"benchsweep at 0.005 (10 orders, no worker)", dataset.CDC(), 0.005, false},
		{"figure at 0.003 (9 orders)", dataset.NYC(), 0.003, false},
		{"benchsweep at 0.1", dataset.CDC(), 0.1, true},
	} {
		_, err := scaled(tc.city, tc.scale, 1)
		if tc.ok != (err == nil) || (err != nil && !strings.Contains(err.Error(), "scale too small")) {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
}

// Both experiment commands refuse fewer than one replicate and a negative
// parallelism before anything else, exit 2 naming the flag, where
// ReplicateSeeds would run an empty sweep and SweepRunner would refuse the
// parallelism only once it runs. The commands are built and run as a user
// runs them; the trailing arguments make one that skipped the check exit 0
// at once (watterbench -list, a ten-order GDP run of wattersim).
func TestReplicatesAndParallelRefused(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build the experiment commands with")
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		cmd  string
		args []string
	}{
		{"watterbench", []string{"-list"}},
		{"wattersim", []string{"-alg", "GDP", "-n", "10", "-m", "2"}},
	} {
		bin := filepath.Join(dir, tc.cmd)
		if out, err := exec.Command(gobin, "build", "-o", bin, "../"+tc.cmd).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", tc.cmd, err, out)
		}
		for _, bad := range []struct{ flag, value string }{
			{"-replicates", "0"}, {"-replicates", "-2"}, {"-parallel", "-3"},
		} {
			var stderr bytes.Buffer
			run := exec.Command(bin, append([]string{bad.flag, bad.value}, tc.args...)...)
			run.Stderr = &stderr
			err := run.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), bad.flag) {
				t.Errorf("%s %s %s: err = %v, stderr %q; want exit 2 naming %s",
					tc.cmd, bad.flag, bad.value, err, stderr.String(), bad.flag)
			}
		}
		if out, err := exec.Command(bin, append([]string{"-replicates", "1", "-parallel", "0"}, tc.args...)...).CombinedOutput(); err != nil {
			t.Errorf("%s -replicates 1 -parallel 0: %v\n%s", tc.cmd, err, out)
		}
	}
}
