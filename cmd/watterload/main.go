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
//	watterload                          # human-readable report, CDC smoke scale
//	watterload -json BENCH_load.json    # write the CI-gated report
//	watterload -rate 2 -workers 300 -horizon 1200
//	watterload -search=false            # skip the rate bisection
//
// Every measurement is virtual-clock deterministic: each scenario runs
// twice and the report's *_deterministic flags certify that both runs
// produced bit-identical order streams and decision journals. The only
// wall-clock number in the report is wall_seconds, the harness's own
// runtime.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"watter/internal/benchfmt"
	"watter/internal/dataset"
	"watter/internal/load"
)

func main() {
	var (
		jsonPath = flag.String("json", "", "write the machine-readable report to this file")
		quiet    = flag.Bool("quiet", false, "suppress per-scenario progress")
		cityName = flag.String("city", "cdc", "city profile: nyc, cdc, xia or met")
		workers  = flag.Int("workers", 60, "fleet size")
		horizon  = flag.Float64("horizon", 300, "arrival window in virtual seconds")
		tick     = flag.Float64("tick", 10, "periodic check interval Δt in seconds")
		seed     = flag.Int64("seed", 1, "workload and arrival seed")
		rate     = flag.Float64("rate", 1, "poisson/pareto arrival rate in orders/sec (surge uses rate/2 as its base)")
		buffer   = flag.Int("buffer", 256, "modelled event-bus buffer (platform WithEventBuffer analogue)")
		drain    = flag.Int("drain", 64, "modelled consumer drain per tick")
		bpBuffer = flag.Int("bpbuffer", 64, "starved-consumer scenario: bus buffer")
		bpDrain  = flag.Int("bpdrain", 8, "starved-consumer scenario: drain per tick")
		shards   = flag.Int("shards", 0, "insert prewarm goroutine count (0/1 inline)")
		scale    = flag.Float64("scale", 1, "multiplies workers and arrival rates")
		search   = flag.Bool("search", true, "bisect for the maximum sustainable rate")
		searchLo = flag.Float64("searchlo", 0.125, "rate-search bracket floor, orders/sec")
		searchHi = flag.Float64("searchhi", 2, "rate-search bracket ceiling, orders/sec")
		searchN  = flag.Int("searchiters", 4, "rate-search bisection depth")
		quantile = flag.Float64("quantile", 0.99, "slip quantile the search gates")
		slack    = flag.Float64("slack", 1, "slip budget in ticks for the search predicate")
		minSvc   = flag.Float64("minsvc", 0.5, "service-rate floor for the search predicate")
	)
	flag.Parse()
	if err := run(*jsonPath, *quiet, *cityName, *workers, *horizon, *tick, *seed, *rate,
		*buffer, *drain, *bpBuffer, *bpDrain, *shards, *scale,
		*search, *searchLo, *searchHi, *searchN, *quantile, *slack, *minSvc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(jsonPath string, quiet bool, cityName string, workers int, horizon, tick float64,
	seed int64, rate float64, buffer, drain, bpBuffer, bpDrain, shards int, scale float64,
	search bool, searchLo, searchHi float64, searchN int, quantile, slack, minSvc float64) error {
	city, err := dataset.ByName(cityName)
	if err != nil {
		return err
	}
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	workers = int(float64(workers) * scale)
	rate *= scale
	searchLo *= scale
	searchHi *= scale
	base := load.Config{
		City:         city,
		Workers:      workers,
		Seed:         seed,
		Horizon:      horizon,
		Tick:         tick,
		Buffer:       buffer,
		DrainPerTick: drain,
		Shards:       shards,
	}

	//det:wallclock wall_seconds reports only the harness's own runtime, never a measurement
	start := time.Now()
	scenarios := []struct {
		name          string
		spec          load.ArrivalSpec
		buffer, drain int
	}{
		{"poisson", load.ArrivalSpec{Process: load.Poisson, Rate: rate, Seed: seed}, 0, 0},
		{"surge", load.ArrivalSpec{Process: load.Surge, Rate: rate / 2, Seed: seed}, 0, 0},
		{"pareto", load.ArrivalSpec{Process: load.Pareto, Rate: rate, Seed: seed}, 0, 0},
		// The starved-consumer scenario exists to place the backpressure
		// onset: same arrivals as the poisson row, but the modelled
		// consumer drains far slower than the bus fills.
		{"backpressure", load.ArrivalSpec{Process: load.Poisson, Rate: rate, Seed: seed}, bpBuffer, bpDrain},
	}

	// The report (BENCH_load.json): one row per scenario, then the rate
	// search, then the run's parameters. Hashes are hex text so JSON
	// round-trips them exactly (uint64 loses bits through float64).
	rep := benchfmt.New("watterload", scale, seed)
	for _, sc := range scenarios {
		cfg := base
		cfg.Arrival = sc.spec
		if sc.buffer > 0 {
			cfg.Buffer, cfg.DrainPerTick = sc.buffer, sc.drain
		}
		// Two consecutive runs: the determinism flags are measured, not
		// asserted — a false flag in the report is a real regression and
		// hard-fails the benchgate.
		a, err := load.Run(cfg)
		if err != nil {
			return fmt.Errorf("watterload: %s: %w", sc.name, err)
		}
		b, err := load.Run(cfg)
		if err != nil {
			return fmt.Errorf("watterload: %s rerun: %w", sc.name, err)
		}
		resolved := cfg.Defaults()
		streamSame := a.StreamHash == b.StreamHash
		journalSame := a.JournalHash == b.JournalHash && *a == *b
		rep.Add(sc.name,
			benchfmt.Text("process", string(a.Process)),
			benchfmt.Info("rate", "orders/s", a.Rate),
			benchfmt.Info("orders", "count", a.Submitted),
			benchfmt.Info("served", "count", a.Served),
			benchfmt.Info("rejected", "count", a.Rejected),
			benchfmt.Info("ticks", "count", a.Ticks),
			benchfmt.Floor("sustained_orders_per_sec", "orders/s", a.SustainedRate),
			benchfmt.Info("p50_latency_s", "s", a.P50),
			benchfmt.Ceiling("p99_latency_s", "s", a.P99),
			// Recorded, not gated: a handful of observations per smoke run
			// makes the p999 bucket too jumpy to hold a ratio against.
			benchfmt.Info("p999_latency_s", "s", a.P999),
			benchfmt.Info("mean_latency_s", "s", a.Mean),
			benchfmt.Info("slip_p99_s", "s", a.SlipP99),
			benchfmt.Info("frac_within_tick", "fraction", a.FracWithinTick),
			benchfmt.Info("service_rate", "fraction", a.ServiceRate),
			benchfmt.Info("backpressure_onset_s", "s", a.BackpressureOnset),
			benchfmt.Info("peak_queue_depth", "count", a.PeakQueueDepth),
			benchfmt.Info("buffer", "count", resolved.Buffer),
			benchfmt.Info("drain_per_tick", "count", resolved.DrainPerTick),
			benchfmt.Text("stream_hash", fmt.Sprintf("%016x", a.StreamHash)),
			benchfmt.Text("journal_hash", fmt.Sprintf("%016x", a.JournalHash)),
			benchfmt.Identical("order_stream_deterministic", streamSame),
			benchfmt.Identical("journal_deterministic", journalSame),
		)
		logf("watterload: %-12s rate=%.3f/s n=%d sustained=%.3f/s svc=%.2f p50=%.1fs p99=%.1fs slip99=%.1fs onset=%.0f deterministic=%v\n",
			sc.name, a.Rate, a.Submitted, a.SustainedRate, a.ServiceRate, a.P50, a.P99, a.SlipP99, a.BackpressureOnset, streamSame && journalSame)
	}

	var maxRate float64
	if search {
		sc := load.SearchConfig{
			Base:           base,
			Quantile:       quantile,
			SlackTicks:     slack,
			MinServiceRate: minSvc,
			Lo:             searchLo,
			Hi:             searchHi,
			Iters:          searchN,
		}
		sc.Base.Arrival = load.ArrivalSpec{Process: load.Poisson, Seed: seed, Rate: searchLo}
		first, err := load.SearchMaxRate(sc, logf)
		if err != nil {
			return err
		}
		second, err := load.SearchMaxRate(sc, nil)
		if err != nil {
			return err
		}
		same := first.MaxRate == second.MaxRate && len(first.Probes) == len(second.Probes)
		for i := 0; same && i < len(first.Probes); i++ {
			same = first.Probes[i] == second.Probes[i]
		}
		maxRate = first.MaxRate
		rep.Add("rate-search",
			benchfmt.Floor("max_sustainable_rate", "orders/s", first.MaxRate),
			benchfmt.Info("search_quantile", "fraction", first.Quantile),
			benchfmt.Info("search_slip_budget_s", "s", first.Budget),
			benchfmt.Info("search_min_service_rate", "fraction", minSvc),
			benchfmt.Info("search_probes", "count", len(first.Probes)),
			benchfmt.Identical("rate_search_deterministic", same),
		)
		logf("watterload: max sustainable rate %.4f orders/sec (slip q%.3g ≤ %.0fs, svc ≥ %.2f) over %d probes, deterministic=%v\n",
			first.MaxRate, first.Quantile, first.Budget, minSvc, len(first.Probes), same)
	}
	//det:wallclock harness runtime for the report's run row; every measurement above is virtual-clock
	wall := time.Since(start).Seconds()
	rep.Add("run",
		benchfmt.Text("city_profile", city.Name),
		benchfmt.Info("workers", "count", workers),
		benchfmt.Info("horizon_s", "s", horizon),
		benchfmt.Info("tick_s", "s", tick),
		benchfmt.Info("wall_seconds", "s", wall),
	)

	if jsonPath != "" {
		if err := rep.Write(jsonPath); err != nil {
			return err
		}
	}
	err = rep.Err()
	fmt.Printf("watterload: %d scenarios on %s (%d workers, %.0fs horizon), max sustainable %.4f orders/sec, deterministic=%v, wall=%.1fs\n",
		len(scenarios), city.Name, workers, horizon, maxRate, err == nil, wall)
	return err
}
