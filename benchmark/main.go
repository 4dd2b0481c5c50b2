// Command benchmark is the repository's benchmark: a closed-loop replay
// of a seeded order stream through platform.Platform's public
// Submit/Tick/Close, on four workloads that stress different layers, with
// an optional traced run that splits the cost by layer from outside.
// README.md in this directory documents workloads, metrics and method;
// BENCHMARK.json at the repository root declares them to the driver.
//
//	go run ./benchmark -workload all -seed 1
//	go run ./benchmark -workload metro_ch -trace 1 -trace-out spans.json
//	go run ./benchmark -compare before/ after/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"watter/internal/sim"
	"watter/internal/stats"
)

// setupRuns is how many times a run sets the workload up from scratch;
// setup_s is their median.
const setupRuns = 3

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report is the result file: the result plus what produced it, so a file
// found in isolation says how to read it and whether the run was
// disturbed.
type report struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Provenance struct {
		GoVersion  string  `json:"go_version"`
		GOMAXPROCS int     `json:"gomaxprocs"`
		NumCPU     int     `json:"nproc"`
		Revision   string  `json:"vcs_revision"`
		Seconds    float64 `json:"seconds"`
		Scale      float64 `json:"scale"`
		City       string  `json:"city"`
		Nodes      int     `json:"nodes"`
		Instances  int     `json:"instances"`
		Orders     int     `json:"orders_per_instance"`
		Workers    int     `json:"workers"`
		Policy     string  `json:"policy"`
		SetupRuns  int     `json:"setup_runs"`
		Repeats    int     `json:"repeats"`
	} `json:"provenance"`
	SubmitSamples int       `json:"submit_samples"`
	TickSamples   int       `json:"tick_samples"`
	SetupS        []float64 `json:"setup_s"`
	RepeatWallS   []float64 `json:"repeat_wall_s"`
	Failures      []string  `json:"failures,omitempty"`
	// Unscaled holds the end-to-end metrics as the clock read them, before
	// scaling to reference host speed (calib.go).
	Unscaled    map[string]float64 `json:"unscaled,omitempty"`
	HostFactors []float64          `json:"host_factors,omitempty"`
	result
}

type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	scale    float64
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload name, or 'all'")
		seed     = flag.Int64("seed", 1, "derives the order, fleet and training seeds")
		seconds  = flag.Float64("seconds", 20, "how long the timed repeats run")
		trace    = flag.Int("trace", 0, "1 runs the traced repeat and layer replays and prints the per-layer metrics instead of the end-to-end ones")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans to this file")
		out      = flag.String("out", "", "directory to write one result file per workload into")
		scale    = flag.Float64("scale", 1, "size multiplier, for tests only: results at other scales are not comparable")
		compare  = flag.Bool("compare", false, "compare two result files or directories given as arguments")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare <a.json|dir> <b.json|dir>")
			os.Exit(2)
		}
		ok, err := compareResults(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	run := specs
	if *name != "all" {
		s, ok := specByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		run = []spec{s}
	}
	failed := false
	for _, s := range run {
		opt := options{seed: *seed, seconds: *seconds, trace: *trace != 0, traceOut: *traceOut, scale: *scale}
		rep, err := measure(s, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if *out != "" {
			if err := writeReport(*out, rep); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
		}
		printReport(rep)
		failed = failed || !rep.Correct
	}
	if failed {
		os.Exit(1)
	}
}

// measure runs one workload: set-up (several times, each ending in a
// replay of the warm-up stream), then timed replays cycling over the
// instances, then — traced runs only — the traced repeat, the sharded arm
// and the layer replays, all on instance 0.
func measure(s spec, opt options) (*report, error) {
	rep := &report{Workload: s.name, Seed: opt.seed, result: result{Metrics: make(map[string]value)}}
	tally := func(r *repeat) {
		rep.Attempted += r.ops
		rep.Failed += r.failed
		rep.Failures = append(rep.Failures, r.failures...)
	}
	// A traced run reports no setup_s, so it sets up once.
	setups := setupRuns
	if opt.trace {
		setups = 1
	}
	var w *workload
	var warm *repeat          // the warm-up stream's reference result
	var setupScaled []float64 // rep.SetupS at reference host speed
	for i := 0; i < setups; i++ {
		runtime.GC()
		before := newHostMeter(opt.scale)
		before.burst()
		t0 := time.Now()
		var err error
		if w, err = buildWorkload(s, opt.seed, opt.scale); err != nil {
			return nil, err
		}
		r, err := runRepeat(w, warmUp, 1, nil)
		if err != nil {
			return nil, err
		}
		// Construction (city, streams, training, the platform) cannot be
		// metered from outside, so it takes the mean of the host's speed
		// just before it and over the replay that follows it.
		construct := time.Since(t0).Seconds() - r.slicesS - r.wallS
		rep.SetupS = append(rep.SetupS, construct+r.wallS)
		setupScaled = append(setupScaled, construct*(before.factor()+r.host)/2+r.wallS*r.host)
		if warm == nil {
			warm = r
		} else {
			r.checkSame(warm, "the first set-up's warm-up")
		}
		tally(r)
	}

	// Timed replays cycle over the instances until the time is up, and at
	// least once around so that every run averages the same streams. A
	// traced run stays on instance 0 for half its time, as the untraced
	// baseline of the traced repeat.
	var per [instances][]*repeat
	cycle, budget := instances, opt.seconds
	if opt.trace {
		cycle, budget = 1, opt.seconds/2
	}
	for i, start := 0, time.Now(); i < cycle || time.Since(start).Seconds() < budget; i++ {
		k := i % cycle
		r, err := runRepeat(w, k, 1, nil)
		if err != nil {
			return nil, err
		}
		if len(per[k]) > 0 {
			r.checkSame(per[k][0], "the instance's first replay")
		}
		tally(r)
		per[k] = append(per[k], r)
		rep.RepeatWallS = append(rep.RepeatWallS, r.wallS)
		rep.HostFactors = append(rep.HostFactors, r.host)
	}

	if opt.trace {
		m, err := tracedValues(w, opt, per[0], tally)
		if err != nil {
			return nil, err
		}
		for _, d := range perLayer {
			rep.set(d, m[d.name])
		}
		rep.Trace = 1
	} else {
		for _, reps := range per {
			for _, r := range reps {
				rep.SubmitSamples += len(r.submit)
				rep.TickSamples += len(r.tick)
			}
		}
		vals := endToEndValues(w, &per, setupScaled, true)
		rep.Unscaled = endToEndValues(w, &per, rep.SetupS, false)
		for _, d := range endToEnd {
			rep.set(d, vals[d.name])
		}
	}

	rep.Correct = rep.Failed == 0
	p := &rep.Provenance
	p.GoVersion, p.GOMAXPROCS, p.NumCPU = runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU()
	p.Revision = vcsRevision()
	p.Seconds, p.Scale = opt.seconds, opt.scale
	p.City, p.Nodes = w.params.City.Name, w.city.Net.NumNodes()
	p.Instances, p.Orders, p.Workers = instances, w.params.Orders, w.params.Workers
	p.Policy = s.policy
	p.SetupRuns, p.Repeats = setups, len(rep.RepeatWallS)
	return rep, nil
}

// tracedValues runs what only a traced run does — the traced replay of
// instance 0, the sharded arm where the workload has one, the layer
// replays — and returns the per-layer metrics. baseline holds the untraced
// replays of instance 0, the first of them its reference result. Times
// come out at reference host speed like every time the benchmark prints:
// replay walls by their own host meters, everything else by the run's
// median factor.
func tracedValues(w *workload, opt options, baseline []*repeat, tally func(*repeat)) (map[string]float64, error) {
	s, ref := w.spec, baseline[0]
	n := len(w.orders[0])
	var walls, cpus, hosts []float64
	for _, r := range baseline {
		walls = append(walls, r.wallS*r.host)
		cpus = append(cpus, r.cpuS*r.host)
		hosts = append(hosts, r.host)
	}
	wall, cpu := stats.Percentile(walls, 50), stats.Percentile(cpus, 50)

	m := make(map[string]float64)
	tr := &tracer{}
	traced, err := runRepeat(w, 0, 1, tr)
	if err != nil {
		return nil, err
	}
	traced.checkSame(ref, "the untraced replays")
	for _, bad := range tr.checkNesting() {
		traced.fail("%s", bad)
	}
	tally(traced)
	traceMetrics(tr, traced, n, wall/traced.host, m)
	statsMetrics(traced, n, m)
	if opt.traceOut != "" {
		if err := tr.writeSpans(opt.traceOut, s.name, opt.seed); err != nil {
			return nil, err
		}
	}
	if k := s.traceShards; k > 1 {
		// The sharded arm of the same instance: same decisions, its
		// speculation counters, and its wall against the K=1 median.
		arm, err := runRepeat(w, 0, k, nil)
		if err != nil {
			return nil, err
		}
		arm.checkSame(ref, fmt.Sprintf("the K=1 replays (K=%d arm)", k))
		tally(arm)
		shardMetrics(arm, n, m)
		m["shard.speedup_vs_k1"] = wall / (arm.wallS * arm.host)
		m["shard.cpu_ratio_vs_k1"] = arm.cpuS * arm.host / cpu
	}
	m["roadnet.build_s"], m["roadnet.ch_build_s"], m["roadnet.heap_mb"] = w.buildS, w.chBuildS, w.heapMB
	m["dataset.generate_s"], m["exp.train_s"] = w.generateS, w.trainS
	poolReplay(w, m)
	routeReplay(w, m)
	roadnetReplay(w, m)
	gridindexReplay(w, m)
	if s.policy == "WATTER-expect" {
		inferenceReplay(w, m)
	}
	host := stats.Percentile(append(hosts, traced.host), 50)
	for _, d := range perLayer {
		switch d.unit {
		case "us", "ms", "s":
			m[d.name] *= host
		}
	}
	return m, nil
}

// endToEndValues folds the timed replays into the end-to-end metrics. A
// metric is the mean over the instances of the instance's own statistic:
// the median over its replays for a per-replay value, a percentile of its
// pooled samples for a latency. With scaled, a replay's wall-clock
// quantities are first brought to reference host speed by its own host
// meter; setupS is taken as given.
func endToEndValues(w *workload, per *[instances][]*repeat, setupS []float64, scaled bool) map[string]float64 {
	host := func(h float64) float64 {
		if scaled {
			return h
		}
		return 1
	}
	over := func(stat func(k int, reps []*repeat) float64) float64 {
		sum := 0.0
		for k, reps := range per {
			sum += stat(k, reps)
		}
		return sum / instances
	}
	perReplay := func(f func(r *repeat, n float64) float64) float64 {
		return over(func(k int, reps []*repeat) float64 {
			vals := make([]float64, len(reps))
			for i, r := range reps {
				vals[i] = f(r, float64(len(w.orders[k])))
			}
			return stats.Percentile(vals, 50)
		})
	}
	latency := func(samples func(*repeat) []time.Duration, q float64) float64 {
		return over(func(_ int, reps []*repeat) float64 {
			var pooled []time.Duration
			for _, r := range reps {
				for _, d := range samples(r) {
					pooled = append(pooled, time.Duration(float64(d)*host(r.host)))
				}
			}
			return percentile(pooled, q)
		})
	}
	quality := func(f func(m *sim.Metrics) float64) float64 {
		return over(func(_ int, reps []*repeat) float64 { return f(&reps[0].metrics) })
	}
	submits := func(r *repeat) []time.Duration { return r.submit }
	ticks := func(r *repeat) []time.Duration { return r.tick }
	return map[string]float64{
		"orders_per_s":             perReplay(func(r *repeat, n float64) float64 { return n / (r.wallS * host(r.host)) }),
		"cpu_ms_per_order":         perReplay(func(r *repeat, n float64) float64 { return r.cpuS * host(r.host) * 1e3 / n }),
		"submit_p50_us":            latency(submits, 0.50) * 1e6,
		"submit_p95_us":            latency(submits, 0.95) * 1e6,
		"tick_p50_ms":              latency(ticks, 0.50) * 1e3,
		"tick_p95_ms":              latency(ticks, 0.95) * 1e3,
		"allocs_per_order":         perReplay(func(r *repeat, n float64) float64 { return float64(r.mallocs) / n }),
		"bytes_per_order":          perReplay(func(r *repeat, n float64) float64 { return float64(r.bytes) / n }),
		"service_rate":             quality(func(m *sim.Metrics) float64 { return m.ServiceRate() }),
		"extra_time_per_order_s":   quality(func(m *sim.Metrics) float64 { return m.ExtraTime() / float64(m.Total) }),
		"unified_cost_per_order_s": quality(func(m *sim.Metrics) float64 { return m.UnifiedCost() / float64(m.Total) }),
		"setup_s":                  stats.Percentile(setupS, 50),
	}
}

// set records one metric; a value that is not a finite number is a failed
// output check, not a result.
func (r *report) set(d metricDef, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Failed++
		r.Failures = append(r.Failures, fmt.Sprintf("metric %s is %v", d.name, v))
		v = 0
	}
	r.Metrics[d.name] = value{Value: v, Unit: d.unit}
}

func vcsRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // go run does not stamp; go build in a git checkout does
}

func writeReport(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, rep.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(blob, '\n'), 0o644)
}

// printReport prints every metric by name with its unit, then the result
// object as the last line.
func printReport(rep *report) {
	p := rep.Provenance
	fmt.Printf("workload %s seed %d: %s, %d nodes, %d instances of %d orders x %d workers, %s; %s, GOMAXPROCS=%d\n",
		rep.Workload, rep.Seed, p.City, p.Nodes, p.Instances, p.Orders, p.Workers, p.Policy, p.GoVersion, p.GOMAXPROCS)
	fmt.Printf("  %d set-up(s) %.3v s, %d timed replay(s) %.3v s\n", p.SetupRuns, rep.SetupS, p.Repeats, rep.RepeatWallS)
	defs := endToEnd
	if rep.Trace == 1 {
		defs = perLayer
	} else {
		fmt.Printf("  submit_samples %d, tick_samples %d\n", rep.SubmitSamples, rep.TickSamples)
	}
	for _, d := range defs {
		v := rep.Metrics[d.name]
		fmt.Printf("  %-30s %14.6g %s\n", d.name, v.Value, v.Unit)
	}
	for _, f := range rep.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		panic(err) // result holds only finite numbers and strings
	}
	fmt.Printf("%s\n", line)
}
