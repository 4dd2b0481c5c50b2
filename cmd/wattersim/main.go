// Command wattersim runs one ridesharing simulation: a single city,
// workload and algorithm, reporting the four paper metrics and the
// dispatched group-size histogram.
//
// Usage:
//
//	wattersim -city nyc -alg WATTER-expect -n 3000 -m 220
//	wattersim -alg GDP -tau 1.2
//	wattersim -alg WATTER-timeout -replicates 8 -parallel 4
//
// Several cities behind one dispatch proxy are cmd/watterproxy's: a
// proxied city's metrics are exactly its standalone run's.
//
// With -replicates R the same configuration runs under R consecutive
// seeds (concurrently, bounded by -parallel) and the four paper metrics
// are reported as mean ± 95% CI.
//
// A single run is exp.Runner.RunOne; replicates are a one-cell exp.Matrix
// run through the sweep engine. Either way the configuration becomes a run
// in exp.Runner.Setup, as every experiment does.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"watter/internal/dataset"
	"watter/internal/exp"
)

func main() {
	var (
		city       = flag.String("city", "cdc", "city: nyc, cdc, xia, met")
		alg        = flag.String("alg", "WATTER-expect", "algorithm: GDP, GAS, WATTER-online, WATTER-timeout, WATTER-expect")
		n          = flag.Int("n", 0, "order count (0 = city default)")
		m          = flag.Int("m", 0, "worker count (0 = city default)")
		tau        = flag.Float64("tau", dataset.DefaultTauScale, "deadline scale")
		eta        = flag.Float64("eta", dataset.DefaultEta, "watching window scale")
		kw         = flag.Int("kw", 4, "max vehicle capacity")
		dt         = flag.Float64("dt", 10, "periodic check interval Δt (s)")
		seed       = flag.Int64("seed", 1, "workload seed (first replicate)")
		replicates = flag.Int("replicates", 1, "seed replicates (metrics become mean ± CI)")
		parallel   = flag.Int("parallel", 0, "max concurrent replicate runs (0 = GOMAXPROCS)")
		model      = flag.String("model", "", "run WATTER-expect from a saved wattertrain bundle instead of retraining")
	)
	flag.Parse()

	profile, err := dataset.ByName(*city)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p := exp.DefaultParams(profile)
	// Only 0 means the city default: a negative count reaches exp's
	// validation, which refuses it by name.
	if *n != 0 {
		p.Orders = *n
	}
	if *m != 0 {
		p.Workers = *m
	}
	p.TauScale = *tau
	p.Eta = *eta
	p.MaxCap = *kw
	p.TickEvery = *dt
	p.Seed = *seed
	// Pin the offline pipeline to the first seed so replicates share one
	// trained model (identical to p.Seed for single runs).
	p.Train.Seed = *seed

	runner := exp.NewRunner()
	runner.Out = os.Stderr
	if *model != "" {
		if *alg != "WATTER-expect" {
			fmt.Fprintln(os.Stderr, "-model only applies to WATTER-expect")
			os.Exit(2)
		}
		f, err := os.Open(*model)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		loaded, err := exp.LoadTrained(f, profile.Build().Net)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runner.UseModel(p, loaded)
	}
	if *replicates > 1 {
		runReplicated(runner, *alg, p, *replicates, *parallel, profile)
		return
	}
	res, err := runner.RunOne(*alg, p)
	if err != nil {
		fail(err)
	}
	mt := res.Metrics
	fmt.Printf("city=%s alg=%s n=%d m=%d tau=%.2f eta=%.2f Kw=%d dt=%.0fs\n",
		profile.Name, *alg, p.Orders, p.Workers, p.TauScale, p.Eta, p.MaxCap, p.TickEvery)
	fmt.Printf("  extra time (Φ):   %.0f s  (served %.0f + penalties %.0f)\n",
		mt.ExtraTime(), mt.ServedExtra, mt.PenaltySum)
	fmt.Printf("  unified cost:     %.0f\n", mt.UnifiedCost())
	fmt.Printf("  service rate:     %.1f%% (%d/%d)\n", 100*mt.ServiceRate(), mt.Served, mt.Total)
	fmt.Printf("  running time:     %.6f s/order\n", mt.RunningTime())
	fmt.Printf("  avg response:     %.1f s, avg detour: %.1f s (served orders)\n",
		safeDiv(mt.ResponseSum, mt.Served), safeDiv(mt.DetourSum, mt.Served))
	fmt.Printf("  group sizes:      ")
	for k := 1; k < len(mt.GroupSizeHist); k++ {
		if mt.GroupSizeHist[k] > 0 {
			fmt.Printf("%dx%d ", k, mt.GroupSizeHist[k])
		}
	}
	fmt.Printf("(avg %.2f)\n", mt.AvgGroupSize())
	fmt.Printf("  wall time:        %s\n", res.Elapsed.Round(1e6))
}

// fail reports err and exits: 2 for parameters exp refuses (a usage error,
// like an unknown city), 1 for a run that failed.
func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	if errors.Is(err, exp.ErrInvalidParams) {
		os.Exit(2)
	}
	os.Exit(1)
}

func safeDiv(a float64, b int) float64 {
	if b == 0 {
		return 0
	}
	return a / float64(b)
}

// runReplicated executes the configuration across consecutive seeds on the
// sweep engine and reports cross-seed summaries.
func runReplicated(runner *exp.Runner, alg string, p exp.Params, replicates, parallel int, profile dataset.Profile) {
	engine := &exp.SweepRunner{Runner: runner, Parallel: parallel}
	res, err := engine.Run(exp.Matrix{
		Base:  p,
		Algs:  []string{alg},
		Seeds: exp.ReplicateSeeds(p.Seed, replicates),
	}.Jobs())
	if err != nil {
		fail(err)
	}
	c := res.Cells[0]
	fmt.Printf("city=%s alg=%s n=%d m=%d tau=%.2f eta=%.2f Kw=%d dt=%.0fs replicates=%d seeds=%v\n",
		profile.Name, alg, p.Orders, p.Workers, p.TauScale, p.Eta, p.MaxCap, p.TickEvery,
		replicates, c.Seeds)
	fmt.Printf("  extra time (Φ):   %s\n", c.ExtraTime)
	fmt.Printf("  unified cost:     %s\n", c.UnifiedCost)
	fmt.Printf("  service rate:     %s\n", c.ServiceRate)
	fmt.Printf("  running time:     %s s/order\n", c.RunningTime)
	fmt.Printf("  wall time:        %.2fs total, %s s/run\n", res.Elapsed.Seconds(), c.Elapsed)
}
