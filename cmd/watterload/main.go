// Command watterload is the open-loop load harness CLI: it drives a
// platform with Poisson, surge and heavy-tailed (Pareto) arrival processes
// on the virtual clock, measures sustained throughput, admit→dispatch
// latency tails and decision slip, and brackets the maximum sustainable
// arrival rate by deterministic bisection. Where every other bench replays a finite batch and reports
// wall-clock totals, watterload answers the production question: at what
// sustained orders/sec does the platform stop keeping its decision
// promises?
//
// Usage:
//
//	watterload                          # CDC smoke scale, one line per scenario
//	watterload -rate 2 -workers 300 -horizon 1200
//	watterload -search=false            # skip the rate bisection
//
// The flags -city -workers -horizon -tick -seed -rate take their defaults
// from load.Config{}.Defaults(), the harness's one table. The arrival
// shapes and the rate search's predicate and bracket are fixed
// (DESIGN.md §14). Every
// measurement is virtual-clock deterministic, so the default run is
// pinned value for value by TestJournalPinnedToBaseline. The only
// wall-clock number printed is the harness's own runtime.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"watter/internal/dataset"
	"watter/internal/load"
)

// options are the command's flags.
type options struct {
	quiet, search       bool
	city                string
	workers             int
	horizon, tick, rate float64
	seed                int64
}

func main() {
	d := load.Config{}.Defaults()
	var o options
	flag.BoolVar(&o.quiet, "quiet", false, "suppress per-scenario progress")
	flag.StringVar(&o.city, "city", d.City.Name, "city profile: nyc, cdc, xia or met")
	flag.IntVar(&o.workers, "workers", d.Workers, "fleet size")
	flag.Float64Var(&o.horizon, "horizon", d.Horizon, "arrival window in virtual seconds")
	flag.Float64Var(&o.tick, "tick", d.Tick, "periodic check interval Δt in seconds")
	flag.Int64Var(&o.seed, "seed", d.Seed, "workload and arrival seed")
	flag.Float64Var(&o.rate, "rate", d.Arrival.Rate, "poisson/pareto arrival rate in orders/sec (surge uses rate/2 as its base)")
	flag.BoolVar(&o.search, "search", true, "bisect for the maximum sustainable rate")
	flag.Parse()
	if _, _, err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run drives the three scenarios (poisson, surge, pareto) and,
// when o.search is set, the rate search (nil otherwise), and returns their
// results in that order after printing one line each and a summary.
func run(o options) ([]*load.Result, *load.SearchResult, error) {
	city, err := dataset.ByName(o.city)
	if err != nil {
		return nil, nil, err
	}
	logf := func(format string, args ...any) {
		if !o.quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	base := load.Config{
		City:    city,
		Workers: o.workers,
		Seed:    o.seed,
		Arrival: load.ArrivalSpec{Process: load.Poisson, Rate: o.rate, Seed: o.seed},
		Horizon: o.horizon,
		Tick:    o.tick,
	}

	start := time.Now()
	scenarios := []struct {
		name    string
		process load.Process
		rate    float64
	}{
		{"poisson", load.Poisson, o.rate},
		{"surge", load.Surge, o.rate / 2},
		{"pareto", load.Pareto, o.rate},
	}
	results := make([]*load.Result, len(scenarios))
	for i, sc := range scenarios {
		cfg := base
		cfg.Arrival.Process, cfg.Arrival.Rate = sc.process, sc.rate
		r, err := load.Run(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("watterload: %s: %w", sc.name, err)
		}
		results[i] = r
		logf("watterload: %-7s rate=%.3f/s n=%d sustained=%.3f/s svc=%.2f p50=%.1fs p99=%.1fs slip99=%.1fs\n",
			sc.name, r.Rate, r.Submitted, r.SustainedRate, r.ServiceRate, r.P50, r.P99, r.SlipP99)
	}

	var found *load.SearchResult
	if o.search {
		if found, err = load.SearchMaxRate(base, logf); err != nil {
			return nil, nil, err
		}
		logf("watterload: max sustainable rate %.4f orders/sec (svc ≥ 0.5) over %d probes\n",
			found.MaxRate, len(found.Probes))
	}
	fmt.Println(summary(o, len(scenarios), city.Name, found, time.Since(start)))
	return results, found, nil
}

// summary is run's last line: the scenarios, the setting, the rate search's
// answer — or that no search ran, which a rate of 0 would misreport as a
// measured one — and the wall time.
func summary(o options, scenarios int, city string, found *load.SearchResult, wall time.Duration) string {
	rate := "not searched (-search=false)"
	if found != nil {
		rate = fmt.Sprintf("%.4f orders/sec", found.MaxRate)
	}
	return fmt.Sprintf("watterload: %d scenarios on %s (%d workers, %.0fs horizon), max sustainable rate %s, wall=%.1fs",
		scenarios, city, o.workers, o.horizon, rate, wall.Seconds())
}
