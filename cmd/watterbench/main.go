// Command watterbench regenerates the paper's evaluation: every figure
// sweep (Figures 3-6, the appendix parameter studies, and this repo's
// ablations) on any of the three synthetic cities, executed over the
// parallel sweep engine.
//
// Usage:
//
//	watterbench -fig fig3 -city cdc                  # one figure, one city
//	watterbench -fig all -city all -scale 0.25       # the whole evaluation, tiny
//	watterbench -fig fig5 -replicates 5 -parallel 8  # mean ± CI across seeds
//	watterbench -benchsweep BENCH_sweep.json         # sequential-vs-parallel timing, checked
//	watterbench -list                                # enumerate sweeps
//
// The -scale flag multiplies order and worker counts; 1.0 is the harness
// default (~1/25 of paper scale), 25 approximates the paper's full scale.
// -parallel bounds concurrent simulation jobs (0 = GOMAXPROCS); results
// are bit-identical at any parallelism.
//
// A figure expands into its jobs (exp.Sweep.Jobs) and runs through the
// sweep engine's one loop (exp.SweepRunner.Run); one seed prints the paper's
// table, -replicates prints mean ± CI per cell, and -csv writes the raw rows
// either way.
//
// -benchsweep times one CDC matrix sequentially and at -parallel, prints the
// row as JSON and, when the file already holds a row, holds the fresh one to
// it: recorded at the same gomaxprocs, scale, seed and parallel, a speedup
// of at least floorFrac of the recorded one, and metrics bit-identical
// between the two sweeps. The file is rewritten only when every check
// passed (or it did not exist); any failure exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"strings"

	"watter/internal/dataset"
	"watter/internal/exp"
)

func main() {
	var (
		fig        = flag.String("fig", "fig3", "sweep id (fig3..fig6, grid, eta, dt, gmm, omega, or 'all')")
		city       = flag.String("city", "cdc", "city: nyc, cdc, xia, met, or 'all' (met is the 102K-node explicit-graph metropolis; 'all' stays nyc/cdc/xia)")
		scale      = flag.Float64("scale", 1, "order/worker count multiplier")
		seed       = flag.Int64("seed", 1, "workload seed (first replicate)")
		replicates = flag.Int("replicates", 1, "seed replicates per cell (reported as mean ± CI)")
		parallel   = flag.Int("parallel", 0, "max concurrent simulation jobs (0 = GOMAXPROCS)")
		quiet      = flag.Bool("quiet", false, "suppress per-run progress")
		list       = flag.Bool("list", false, "list available sweeps and exit")
		algsCSV    = flag.String("algs", "", "comma-separated algorithm subset (default: sweep's own)")
		csvPath    = flag.String("csv", "", "also append tidy per-cell rows to this CSV file")
		benchsweep = flag.String("benchsweep", "", "run the sequential-vs-parallel engine benchmark, check it against the row already in this file (if any) and write the fresh row there")
	)
	flag.Parse()

	if *list {
		base := exp.DefaultParams(dataset.CDC())
		for _, s := range exp.FigureSweeps(base) {
			fmt.Printf("%-8s %s  points=%v\n", s.ID, s.Label, s.Points)
		}
		return
	}
	if *benchsweep != "" {
		base, err := scaled(dataset.CDC(), *scale, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := runBenchSweep(*benchsweep, base, *scale, *parallel, *quiet); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	var cities []dataset.Profile
	if *city == "all" {
		cities = []dataset.Profile{dataset.NYC(), dataset.CDC(), dataset.XIA()}
	} else {
		p, err := dataset.ByName(*city)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		cities = []dataset.Profile{p}
	}

	runner := exp.NewRunner()
	if !*quiet {
		runner.Out = os.Stderr
	}
	engine := &exp.SweepRunner{Runner: runner, Parallel: *parallel}
	var csvFile *os.File
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		csvFile = f
	}

	for _, cityProfile := range cities {
		base, err := scaled(cityProfile, *scale, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}

		var sweeps []exp.Sweep
		if *fig == "all" {
			sweeps = exp.FigureSweeps(base)
		} else {
			s, err := exp.SweepByID(base, *fig)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			sweeps = []exp.Sweep{s}
		}
		for _, s := range sweeps {
			if *algsCSV != "" {
				s.Algs = strings.Split(*algsCSV, ",")
			}
			res, err := engine.Run(s.Jobs(base, exp.ReplicateSeeds(*seed, *replicates)))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if *replicates > 1 {
				fmt.Printf("== %s / %s — varying %s, %d replicates ==\n", s.ID, cityProfile.Name, s.Label, *replicates)
				exp.PrintCells(os.Stdout, res.Cells)
				fmt.Println()
			} else {
				exp.PrintSweep(os.Stdout, s, cityProfile, res.Results)
			}
			writeCSV(csvFile, s.ID, res.Results)
		}
	}
}

func writeCSV(f *os.File, sweepID string, results []*exp.Result) {
	if f == nil {
		return
	}
	if err := exp.WriteCSV(f, sweepID, results); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// scaled is city's default experiment at seed with its order and worker
// counts multiplied by scale; it refuses a scale that leaves fewer than 10
// orders or no worker.
func scaled(city dataset.Profile, scale float64, seed int64) (exp.Params, error) {
	p := exp.DefaultParams(city)
	p.Seed = seed
	p.Orders = int(float64(p.Orders) * scale)
	p.Workers = int(float64(p.Workers) * scale)
	if p.Orders < 10 || p.Workers < 1 {
		return p, errors.New("watterbench: scale too small")
	}
	return p, nil
}

// floorFrac is the share of the baseline's speedup a fresh run must reach.
// Calibrated on a 2-core x86 box at GOMAXPROCS=2 against the committed
// 1.588x (floor 1.191x): over 34 alternating pairs a sweep engine forced
// serial read 0.87-1.10x and the healthy one 1.25-1.71x.
const floorFrac = 0.75

// sweepRow is the -benchsweep row: the settings a speedup depends on (a row
// compares only with one recorded under the same four), the two wall clocks
// and whether the parallel sweep reproduced the sequential one bit for bit.
type sweepRow struct {
	GOMAXPROCS          int     `json:"gomaxprocs"`
	Scale               float64 `json:"scale"`
	Seed                int64   `json:"seed"`
	Parallel            int     `json:"parallel"`
	GoVersion           string  `json:"go_version"`
	Jobs                int     `json:"jobs"`
	Cells               int     `json:"cells"`
	SequentialSeconds   float64 `json:"sequential_seconds"`
	ParallelSeconds     float64 `json:"parallel_seconds"`
	Speedup             float64 `json:"speedup"`
	MetricsBitIdentical bool    `json:"metrics_bit_identical"`
}

// readRow loads the row at path, refusing a field it does not know, trailing
// data and a speedup that is not a positive number.
func readRow(path string) (sweepRow, error) {
	var r sweepRow
	f, err := os.Open(path)
	if err != nil {
		return r, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return r, fmt.Errorf("%s: trailing data after the row", path)
	}
	if !(r.Speedup > 0) {
		return r, fmt.Errorf("%s: speedup %v is not positive", path, r.Speedup)
	}
	return r, nil
}

// guarantee fails a row whose parallel sweep did not reproduce the
// sequential one.
func (r sweepRow) guarantee() error {
	if !r.MetricsBitIdentical {
		return errors.New("benchsweep: metrics_bit_identical is false: the parallel sweep's metrics differ from the sequential sweep's")
	}
	return nil
}

// check holds fresh to base: base's guarantee true, both recorded under the
// same settings, fresh's speedup at least floorFrac of base's, and fresh's
// guarantee true.
func check(base, fresh sweepRow) error {
	if !base.MetricsBitIdentical {
		return errors.New("benchsweep: the baseline's metrics_bit_identical is false: its speedup timed a parallel sweep that went wrong")
	}
	for _, f := range []struct {
		name        string
		base, fresh any
	}{
		{"gomaxprocs", base.GOMAXPROCS, fresh.GOMAXPROCS},
		{"scale", base.Scale, fresh.Scale},
		{"seed", base.Seed, fresh.Seed},
		{"parallel", base.Parallel, fresh.Parallel},
	} {
		if f.base != f.fresh {
			return fmt.Errorf("benchsweep: %s is %v in the baseline and %v in the fresh row; their speedups do not compare", f.name, f.base, f.fresh)
		}
	}
	if floor := floorFrac * base.Speedup; !(fresh.Speedup >= floor) {
		return fmt.Errorf("benchsweep: speedup %.4gx is below the floor %.4gx (%v x the baseline's %.4gx)", fresh.Speedup, floor, floorFrac, base.Speedup)
	}
	return fresh.guarantee()
}

// record prints the fresh row to out and checks it against the baseline at
// path when that file exists. It writes the fresh row to path only when
// there was no baseline or every check passed; a false guarantee fails the
// run either way, after the first record is written.
func record(path string, fresh sweepRow, out io.Writer) error {
	blob, err := json.MarshalIndent(fresh, "", "  ")
	if err != nil {
		fmt.Fprintf(out, "%+v\n", fresh)
		return fmt.Errorf("benchsweep: %w", err)
	}
	blob = append(blob, '\n')
	out.Write(blob)
	base, err := readRow(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			return err
		}
		return fresh.guarantee()
	}
	if err != nil {
		return err
	}
	if err := check(base, fresh); err != nil {
		return err
	}
	fmt.Fprintf(out, "benchsweep: speedup %.4gx >= floor %.4gx (%v x the baseline's %.4gx)\n", fresh.Speedup, floorFrac*base.Speedup, floorFrac, base.Speedup)
	return os.WriteFile(path, blob, 0o644)
}

// runBenchSweep times one fixed CDC matrix (strategies + baselines x order
// loads x 2 seeds at base) sequentially and in parallel, verifies the two
// runs produced bit-identical metrics, and records the row at path.
func runBenchSweep(path string, base exp.Params, scale float64, parallel int, quiet bool) error {
	m := exp.Matrix{
		Base: base,
		// WATTER-expect is excluded: its offline training is a one-time,
		// cached cost that would swamp the sweep-throughput signal.
		Algs:   []string{"GDP", "GAS", "WATTER-online", "WATTER-timeout"},
		Orders: []int{base.Orders, base.Orders * 5 / 4},
		Seeds:  []int64{base.Seed, base.Seed + 1},
	}
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}

	jobs := m.Jobs()
	logf("benchsweep: %d jobs sequentially...\n", len(jobs))
	seq, err := (&exp.SweepRunner{Runner: exp.NewRunner(), Parallel: 1}).Run(jobs)
	if err != nil {
		return err
	}
	logf("benchsweep: %d jobs at parallel=%d...\n", len(jobs), parallel)
	par, err := (&exp.SweepRunner{Runner: exp.NewRunner(), Parallel: parallel}).Run(jobs)
	if err != nil {
		return err
	}

	identical := true
	for i := range seq.Results {
		a, b := *seq.Results[i].Metrics, *par.Results[i].Metrics
		a.DecisionSeconds, b.DecisionSeconds = 0, 0
		if a != b {
			identical = false
			break
		}
	}
	return record(path, sweepRow{
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		Scale:               scale,
		Seed:                base.Seed,
		Parallel:            parallel,
		GoVersion:           runtime.Version(),
		Jobs:                len(seq.Jobs),
		Cells:               len(seq.Cells),
		SequentialSeconds:   seq.Elapsed.Seconds(),
		ParallelSeconds:     par.Elapsed.Seconds(),
		Speedup:             seq.Elapsed.Seconds() / par.Elapsed.Seconds(),
		MetricsBitIdentical: identical,
	}, os.Stdout)
}
