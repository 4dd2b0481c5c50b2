// Command watterload is the open-loop load harness CLI: it drives a
// platform with Poisson, surge and heavy-tailed (Pareto) arrival processes
// on the virtual clock, measures sustained throughput, admit→dispatch
// latency tails, decision slip and the event-bus backpressure onset, and
// brackets the maximum sustainable arrival rate by deterministic
// bisection. Where every other bench replays a finite batch and reports
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
// Every measurement is virtual-clock deterministic, so the default run is
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
	quiet                     bool
	city                      string
	workers                   int
	horizon, tick, rate       float64
	seed                      int64
	buffer, drain             int
	bpBuffer, bpDrain, shards int
	search                    bool
	searchLo, searchHi        float64
	searchN                   int
	quantile, slack, minSvc   float64
}

func main() {
	var o options
	flag.BoolVar(&o.quiet, "quiet", false, "suppress per-scenario progress")
	flag.StringVar(&o.city, "city", "cdc", "city profile: nyc, cdc, xia or met")
	flag.IntVar(&o.workers, "workers", 60, "fleet size")
	flag.Float64Var(&o.horizon, "horizon", 300, "arrival window in virtual seconds")
	flag.Float64Var(&o.tick, "tick", 10, "periodic check interval Δt in seconds")
	flag.Int64Var(&o.seed, "seed", 1, "workload and arrival seed")
	flag.Float64Var(&o.rate, "rate", 1, "poisson/pareto arrival rate in orders/sec (surge uses rate/2 as its base)")
	flag.IntVar(&o.buffer, "buffer", 256, "modelled event-bus buffer (platform WithEventBuffer analogue)")
	flag.IntVar(&o.drain, "drain", 64, "modelled consumer drain per tick")
	flag.IntVar(&o.bpBuffer, "bpbuffer", 64, "starved-consumer scenario: bus buffer")
	flag.IntVar(&o.bpDrain, "bpdrain", 8, "starved-consumer scenario: drain per tick")
	flag.IntVar(&o.shards, "shards", 0, "insert prewarm goroutine count (0/1 inline)")
	flag.BoolVar(&o.search, "search", true, "bisect for the maximum sustainable rate")
	flag.Float64Var(&o.searchLo, "searchlo", 0.125, "rate-search bracket floor, orders/sec")
	flag.Float64Var(&o.searchHi, "searchhi", 2, "rate-search bracket ceiling, orders/sec")
	flag.IntVar(&o.searchN, "searchiters", 4, "rate-search bisection depth")
	flag.Float64Var(&o.quantile, "quantile", 0.99, "slip quantile the search gates")
	flag.Float64Var(&o.slack, "slack", 1, "slip budget in ticks for the search predicate")
	flag.Float64Var(&o.minSvc, "minsvc", 0.5, "service-rate floor for the search predicate")
	flag.Parse()
	if _, _, err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run drives the four scenarios (poisson, surge, pareto, backpressure) and,
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
		City:         city,
		Workers:      o.workers,
		Seed:         o.seed,
		Horizon:      o.horizon,
		Tick:         o.tick,
		Buffer:       o.buffer,
		DrainPerTick: o.drain,
		Shards:       o.shards,
	}

	start := time.Now()
	scenarios := []struct {
		name          string
		spec          load.ArrivalSpec
		buffer, drain int
	}{
		{"poisson", load.ArrivalSpec{Process: load.Poisson, Rate: o.rate, Seed: o.seed}, 0, 0},
		{"surge", load.ArrivalSpec{Process: load.Surge, Rate: o.rate / 2, Seed: o.seed}, 0, 0},
		{"pareto", load.ArrivalSpec{Process: load.Pareto, Rate: o.rate, Seed: o.seed}, 0, 0},
		// The starved-consumer scenario exists to place the backpressure
		// onset: same arrivals as the poisson row, but the modelled
		// consumer drains far slower than the bus fills.
		{"backpressure", load.ArrivalSpec{Process: load.Poisson, Rate: o.rate, Seed: o.seed}, o.bpBuffer, o.bpDrain},
	}
	results := make([]*load.Result, len(scenarios))
	for i, sc := range scenarios {
		cfg := base
		cfg.Arrival = sc.spec
		if sc.buffer > 0 {
			cfg.Buffer, cfg.DrainPerTick = sc.buffer, sc.drain
		}
		r, err := load.Run(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("watterload: %s: %w", sc.name, err)
		}
		results[i] = r
		logf("watterload: %-12s rate=%.3f/s n=%d sustained=%.3f/s svc=%.2f p50=%.1fs p99=%.1fs slip99=%.1fs onset=%.0f\n",
			sc.name, r.Rate, r.Submitted, r.SustainedRate, r.ServiceRate, r.P50, r.P99, r.SlipP99, r.BackpressureOnset)
	}

	var found *load.SearchResult
	var maxRate float64
	if o.search {
		sc := load.SearchConfig{
			Base:           base,
			Quantile:       o.quantile,
			SlackTicks:     o.slack,
			MinServiceRate: o.minSvc,
			Lo:             o.searchLo,
			Hi:             o.searchHi,
			Iters:          o.searchN,
		}
		sc.Base.Arrival = load.ArrivalSpec{Process: load.Poisson, Seed: o.seed, Rate: o.searchLo}
		if found, err = load.SearchMaxRate(sc, logf); err != nil {
			return nil, nil, err
		}
		maxRate = found.MaxRate
		logf("watterload: max sustainable rate %.4f orders/sec (slip q%.3g ≤ %.0fs, svc ≥ %.2f) over %d probes\n",
			found.MaxRate, found.Quantile, found.Budget, o.minSvc, len(found.Probes))
	}
	fmt.Printf("watterload: %d scenarios on %s (%d workers, %.0fs horizon), max sustainable %.4f orders/sec, wall=%.1fs\n",
		len(scenarios), city.Name, o.workers, o.horizon, maxRate, time.Since(start).Seconds())
	return results, found, nil
}
