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
//	watterbench -benchsweep BENCH_sweep.json         # sequential-vs-parallel timing
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
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"watter/internal/benchfmt"
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
		benchsweep = flag.String("benchsweep", "", "run the sequential-vs-parallel engine benchmark and write its JSON report to this file")
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
		if err := runBenchSweep(*benchsweep, *scale, *seed, *parallel, *quiet); err != nil {
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
		base := exp.DefaultParams(cityProfile)
		base.Seed = *seed
		base.Orders = int(float64(base.Orders) * *scale)
		base.Workers = int(float64(base.Workers) * *scale)
		if base.Orders < 10 || base.Workers < 1 {
			fmt.Fprintln(os.Stderr, "watterbench: scale too small")
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

// finish writes the report, prints the metrics it declares gated, and fails
// on a guarantee that came back false (after writing, so the evidence is on
// disk).
func finish(rep *benchfmt.Report, path string) error {
	if err := rep.Write(path); err != nil {
		return err
	}
	for _, row := range rep.Rows {
		fmt.Printf("%s: %s:", rep.Tool, row.Name)
		for _, m := range row.Metrics {
			if m.Kind == benchfmt.KindInfo {
				continue
			}
			if v, ok := m.Value.(float64); ok {
				fmt.Printf(" %s=%.4g%s", m.Name, v, m.Unit)
			} else {
				fmt.Printf(" %s=%v", m.Name, m.Value)
			}
		}
		fmt.Println()
	}
	return rep.Err()
}

// runBenchSweep times one fixed CDC matrix (strategies + baselines x order
// loads x 2 seeds) sequentially and in parallel, verifies the two runs
// produced bit-identical metrics, and writes the JSON report other PRs use
// as the perf trajectory baseline.
func runBenchSweep(path string, scale float64, seed int64, parallel int, quiet bool) error {
	base := exp.DefaultParams(dataset.CDC())
	base.Seed = seed
	base.Orders = int(float64(base.Orders) * scale)
	base.Workers = int(float64(base.Workers) * scale)
	m := exp.Matrix{
		Base: base,
		// WATTER-expect is excluded: its offline training is a one-time,
		// cached cost that would swamp the sweep-throughput signal.
		Algs:   []string{"GDP", "GAS", "WATTER-online", "WATTER-timeout"},
		Orders: []int{base.Orders, base.Orders * 5 / 4},
		Seeds:  []int64{seed, seed + 1},
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
	rep := benchfmt.New("watterbench -benchsweep", scale, seed)
	rep.Add("CDC",
		benchfmt.Info("jobs", "count", len(seq.Jobs)),
		benchfmt.Info("cells", "count", len(seq.Cells)),
		benchfmt.Info("parallel", "count", parallel),
		benchfmt.Info("sequential_seconds", "s", seq.Elapsed.Seconds()),
		benchfmt.Info("parallel_seconds", "s", par.Elapsed.Seconds()),
		benchfmt.Floor("speedup", "x", seq.Elapsed.Seconds()/par.Elapsed.Seconds()),
		benchfmt.Identical("metrics_bit_identical", identical),
	)
	return finish(rep, path)
}
