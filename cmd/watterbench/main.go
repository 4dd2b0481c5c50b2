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
//	watterbench -benchroute BENCH_routing.json       # routing engine vs cold Dijkstra
//	watterbench -benchstream BENCH_stream.json       # event bus vs batch replay
//	watterbench -benchpool BENCH_pool.json           # plan cache vs replan-always pool
//	watterbench -benchshard BENCH_shard.json         # insert prewarm on K goroutines vs K = 1
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
// either way. The -benchstream and -benchpool arms stand their CDC cell up
// through exp.Runner.Setup, the builder every experiment run uses.
package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"watter/internal/benchfmt"
	"watter/internal/core"
	"watter/internal/dataset"
	"watter/internal/exp"
	"watter/internal/geo"
	"watter/internal/gridindex"
	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/route"
	"watter/internal/sim"
	"watter/internal/strategy"
)

func main() {
	var (
		fig         = flag.String("fig", "fig3", "sweep id (fig3..fig6, grid, eta, dt, gmm, omega, or 'all')")
		city        = flag.String("city", "cdc", "city: nyc, cdc, xia, met, or 'all' (met is the 102K-node explicit-graph metropolis; 'all' stays nyc/cdc/xia)")
		scale       = flag.Float64("scale", 1, "order/worker count multiplier")
		seed        = flag.Int64("seed", 1, "workload seed (first replicate)")
		replicates  = flag.Int("replicates", 1, "seed replicates per cell (reported as mean ± CI)")
		parallel    = flag.Int("parallel", 0, "max concurrent simulation jobs (0 = GOMAXPROCS)")
		quiet       = flag.Bool("quiet", false, "suppress per-run progress")
		list        = flag.Bool("list", false, "list available sweeps and exit")
		algsCSV     = flag.String("algs", "", "comma-separated algorithm subset (default: sweep's own)")
		csvPath     = flag.String("csv", "", "also append tidy per-cell rows to this CSV file")
		benchsweep  = flag.String("benchsweep", "", "run the sequential-vs-parallel engine benchmark and write its JSON report to this file")
		benchroute  = flag.String("benchroute", "", "run the point-to-point routing engine benchmark and write its JSON report to this file")
		benchstream = flag.String("benchstream", "", "run the event-bus-vs-batch-replay benchmark and write its JSON report to this file")
		benchpool   = flag.String("benchpool", "", "run the pool-maintenance plan-cache benchmark and write its JSON report to this file")
		benchshard  = flag.String("benchshard", "", "run the K-goroutine insert prewarm benchmark and write its JSON report to this file")
		shards      = flag.Int("shards", 0, "prewarm goroutine count for -benchshard's sharded arm (0 = GOMAXPROCS, min 2)")
	)
	flag.Parse()

	if *list {
		base := exp.DefaultParams(dataset.CDC())
		for _, s := range exp.FigureSweeps(base) {
			fmt.Printf("%-8s %s  points=%v\n", s.ID, s.Label, s.Points)
		}
		return
	}
	benchModes := []struct {
		path string
		run  func(path string) error
	}{
		{*benchsweep, func(p string) error { return runBenchSweep(p, *scale, *seed, *parallel, *quiet) }},
		{*benchroute, func(p string) error { return runBenchRoute(p, *scale, *seed, *quiet) }},
		{*benchstream, func(p string) error { return runBenchStream(p, *scale, *seed, *quiet) }},
		{*benchpool, func(p string) error { return runBenchPool(p, *scale, *seed, *quiet) }},
		{*benchshard, func(p string) error { return runBenchShard(p, *scale, *seed, *shards, *quiet) }},
	}
	for _, m := range benchModes {
		if m.path == "" {
			continue
		}
		if err := m.run(m.path); err != nil {
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

// finish is the one tail of every -bench* mode: write the report, print the
// metrics it declares gated, and fail on a guarantee that came back false
// (after writing, so the evidence is on disk).
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

// legBlock prices the ten legs of one order pair's leg block the way
// route.LegStore fills it: the two 2x2 cross matrices between the orders'
// endpoints, then each order's own pickup -> dropoff leg. locs is
// [pickup_a, dropoff_a, pickup_b, dropoff_b].
func legBlock(net roadnet.Network, locs []geo.NodeID, legs []float64) {
	roadnet.FillCostMatrix(net, locs[:2], locs[2:], legs[0:4])
	roadnet.FillCostMatrix(net, locs[2:], locs[:2], legs[4:8])
	legs[8], legs[9] = net.Cost(locs[0], locs[1]), net.Cost(locs[2], locs[3])
}

// benchRouteRow adds one city scale to the routing report (BENCH_routing.json),
// timed through three point-to-point regimes over the same probe set: the
// contraction hierarchy, the ALT engine it replaces on large graphs, and the
// reference — one full single-source Dijkstra per probe, what a graph with no
// engine would pay. Probes are single pickup→dropoff pairs, what admission and
// every within-order leg ask. The leg-block probe then prices pairs of
// consecutive probes as blocks (legBlock), on the engines' batched path; its
// ALT arm exists only on rows small enough that Build leaves the hierarchy
// out, since a graph that has one answers every batched fill with it. All arms
// must agree with the reference bit for bit. The returned error says the
// hierarchy did not beat the reference.
func benchRouteRow(rep *benchfmt.Report, city string, g *roadnet.Graph, probes int, seed int64, logf func(string, ...any)) error {
	rng := rand.New(rand.NewSource(seed*7919 + int64(g.NumNodes())))
	// Sources recur (48 distinct), as pickups do in a dispatch stream; the
	// draw order also fixes the probe set the committed series was timed on.
	srcPool := make([]geo.NodeID, 48)
	for i := range srcPool {
		srcPool[i] = geo.NodeID(rng.Intn(g.NumNodes()))
	}
	type probe struct{ s, t geo.NodeID }
	work := make([]probe, probes)
	for i := range work {
		s := srcPool[rng.Intn(len(srcPool))]
		t := geo.NodeID(rng.Intn(g.NumNodes()))
		for t == s {
			t = geo.NodeID(rng.Intn(g.NumNodes()))
		}
		work[i] = probe{s, t}
	}
	// One block per eight probes keeps the reference arm (ten Dijkstras a
	// block) within the cold arm's wall at metropolis scale.
	blocks := make([][]geo.NodeID, probes/8)
	for i := range blocks {
		a, b := work[2*i], work[2*i+1]
		blocks[i] = []geo.NodeID{a.s, a.t, b.s, b.t}
	}
	timeBlocks := func(net roadnet.Network) ([]float64, float64) {
		legs := make([]float64, 10*len(blocks))
		start := time.Now()
		for i, locs := range blocks {
			legBlock(net, locs, legs[10*i:10*i+10])
		}
		return legs, time.Since(start).Seconds()
	}
	// Batched fills go to the hierarchy once the graph has one, so ALT's
	// blocks are timed first, where Build has not installed it already.
	var altLegs []float64
	var altBlockSecs float64
	if !g.HasHierarchy() {
		altLegs, altBlockSecs = timeBlocks(g)
	}

	g.EnableHierarchy()
	logf("benchroute: %s — %d nodes, %d landmarks, %d shortcuts (built in %.1fs), %d probes, %d leg blocks\n",
		city, g.NumNodes(), g.NumLandmarks(), g.NumShortcuts(), g.HierarchyBuildSeconds(), probes, len(blocks))

	chOut := make([]float64, probes)
	start := time.Now()
	for i, p := range work {
		chOut[i] = g.Cost(p.s, p.t)
	}
	chSecs := time.Since(start).Seconds()

	altOut := make([]float64, probes)
	start = time.Now()
	for i, p := range work {
		altOut[i] = g.CostALT(p.s, p.t)
	}
	altSecs := time.Since(start).Seconds()

	ref := roadnet.Reference(g)
	coldOut := make([]float64, probes)
	start = time.Now()
	for i, p := range work {
		coldOut[i] = ref.Cost(p.s, p.t)
	}
	coldSecs := time.Since(start).Seconds()

	identical := true
	unreachable := 0
	for i := range chOut {
		if chOut[i] != altOut[i] || chOut[i] != coldOut[i] {
			identical = false
		}
		if math.IsInf(chOut[i], 1) {
			unreachable++
		}
	}
	chLegs, chBlockSecs := timeBlocks(g)
	refLegs, _ := timeBlocks(ref)
	blocksIdentical := true
	for i, want := range refLegs {
		if chLegs[i] != want || (altLegs != nil && altLegs[i] != want) {
			blocksIdentical = false
		}
	}
	// Probes until the CH build has paid for itself versus staying on ALT.
	amortize := -1.0
	if perProbeGain := (altSecs - chSecs) / float64(probes); perProbeGain > 0 {
		amortize = math.Ceil(g.HierarchyBuildSeconds() / perProbeGain)
	}

	metrics := []benchfmt.Metric{
		benchfmt.Info("nodes", "count", g.NumNodes()),
		benchfmt.Info("landmarks", "count", g.NumLandmarks()),
		benchfmt.Info("ch_shortcuts", "count", g.NumShortcuts()),
		benchfmt.Info("ch_core", "count", g.CoreSize()),
		benchfmt.Info("ch_build_seconds", "s", g.HierarchyBuildSeconds()),
		benchfmt.Info("probes", "count", probes),
		benchfmt.Info("ch_seconds", "s", chSecs),
		benchfmt.Info("alt_seconds", "s", altSecs),
		benchfmt.Info("cold_dijkstra_seconds", "s", coldSecs),
		benchfmt.Floor("speedup_ch_vs_alt", "x", altSecs/chSecs),
		benchfmt.Floor("speedup_ch_vs_cold", "x", coldSecs/chSecs),
		benchfmt.Floor("speedup_alt_vs_cold", "x", coldSecs/altSecs),
		benchfmt.Info("ch_build_amortize_probes", "count", amortize),
		benchfmt.Identical("distances_bit_identical", identical),
		benchfmt.Info("unreachable_pct", "%", 100*float64(unreachable)/float64(probes)),
		benchfmt.Info("matrix4_blocks", "count", len(blocks)),
		benchfmt.Info("ch_matrix4_seconds", "s", chBlockSecs),
		benchfmt.Identical("matrix4_bit_identical", blocksIdentical),
	}
	if altLegs != nil {
		metrics = append(metrics, benchfmt.Info("alt_matrix4_seconds", "s", altBlockSecs))
	}
	rep.Add(city, metrics...)
	if coldSecs <= chSecs {
		return fmt.Errorf("benchroute: %s: CH (%.3fs) did not beat the cold Dijkstra path (%.3fs)", city, chSecs, coldSecs)
	}
	return nil
}

// runBenchRoute benchmarks the routing oracle at two city scales: the
// 70x70 perturbed grid (≈4.9K nodes — below the hierarchy's auto-build
// threshold, so the row forces one) and the 320x320 metropolis (≈102K
// nodes, the paper's real-city scale). The metropolis is round-tripped
// through the DIMACS writer/importer, so the row also certifies that an
// imported city answers bit-identically. Each row verifies CH, ALT and
// the reference Dijkstra agree bit for bit and records the CH build cost
// plus the probe count that amortizes it.
func runBenchRoute(path string, scale float64, seed int64, quiet bool) error {
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	sideAt := func(base int, floor int) int {
		side := int(float64(base) * math.Sqrt(scale))
		if side < floor {
			side = floor
		}
		return side
	}

	rep := benchfmt.New("watterbench -benchroute", scale, seed)
	small := sideAt(70, 12)
	gSmall := roadnet.NewPerturbedGrid(small, small, 200, 8, 0.3, seed)
	slowSmall := benchRouteRow(rep, fmt.Sprintf("perturbed-grid-%dx%d", small, small), gSmall, 4096, seed, logf)

	big := sideAt(320, 40)
	var gr, co bytes.Buffer
	if err := roadnet.WriteDIMACSGrid(&gr, &co, big, big, 200, 8, 0.3, seed); err != nil {
		return err
	}
	logf("benchroute: importing %dx%d DIMACS city (%d bytes .gr)...\n", big, big, gr.Len())
	gBig, err := roadnet.ReadDIMACS(&gr, &co)
	if err != nil {
		return err
	}
	slowBig := benchRouteRow(rep, fmt.Sprintf("dimacs-metro-%dx%d", big, big), gBig, 384, seed, logf)
	if err := finish(rep, path); err != nil {
		return err
	}
	return errors.Join(slowSmall, slowBig)
}

// runBenchStream measures what the event bus costs: the same CDC workload
// is replayed through a Platform with no subscriber (the batch arm: no event
// is ever built) and through one with a subscribed, actively-drained event
// channel. Both arms run the one platform loop, so metrics must be
// bit-identical; the report tracks the wall-clock ratio the way
// BENCH_routing.json tracks the routing engine.
func runBenchStream(path string, scale float64, seed int64, quiet bool) error {
	base := exp.DefaultParams(dataset.CDC())
	base.Seed = seed
	base.Orders = int(float64(base.Orders) * scale)
	base.Workers = int(float64(base.Workers) * scale)
	if base.Orders < 10 || base.Workers < 1 {
		return fmt.Errorf("benchstream: scale %.2f too small", scale)
	}
	runner := exp.NewRunner()
	setup, err := runner.Setup(base)
	if err != nil {
		return err
	}
	const rounds = 3
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	logf("benchstream: CDC n=%d m=%d, %d rounds per arm\n", base.Orders, base.Workers, rounds)

	runBatch := func() (*sim.Metrics, float64, error) {
		alg, err := runner.Build("WATTER-online", base)
		if err != nil {
			return nil, 0, err
		}
		p, err := setup.Platform(alg, false)
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		m, err := p.Replay(setup.Orders)
		return m, time.Since(start).Seconds(), err
	}
	runStream := func() (*sim.Metrics, float64, int, error) {
		alg, err := runner.Build("WATTER-online", base)
		if err != nil {
			return nil, 0, 0, err
		}
		p, err := setup.Platform(alg, false)
		if err != nil {
			return nil, 0, 0, err
		}
		events := p.Events()
		counted := make(chan int, 1)
		go func() {
			n := 0
			for range events {
				n++
			}
			counted <- n
		}()
		start := time.Now()
		m, err := p.Replay(setup.Orders)
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return nil, 0, 0, err
		}
		return m, elapsed, <-counted, nil
	}

	var batchSecs, streamSecs float64
	var events int
	identical := true
	for r := 0; r < rounds; r++ {
		bm, bs, err := runBatch()
		if err != nil {
			return err
		}
		sm, ss, n, err := runStream()
		if err != nil {
			return err
		}
		batchSecs += bs
		streamSecs += ss
		events = n
		a, b := *bm, *sm
		a.DecisionSeconds, b.DecisionSeconds = 0, 0
		if a != b {
			identical = false
			fmt.Fprintf(os.Stderr, "benchstream: streamed metrics diverged from batch replay:\nbatch:  %+v\nstream: %+v\n", a, b)
		}
		logf("benchstream: round %d batch=%.3fs stream=%.3fs events=%d\n", r+1, bs, ss, n)
	}

	rep := benchfmt.New("watterbench -benchstream", scale, seed)
	rep.Add("CDC",
		benchfmt.Text("alg", "WATTER-online"),
		benchfmt.Info("orders", "count", base.Orders),
		benchfmt.Info("workers", "count", base.Workers),
		benchfmt.Info("rounds", "count", rounds),
		benchfmt.Info("batch_seconds", "s", batchSecs/rounds),
		benchfmt.Info("stream_seconds", "s", streamSecs/rounds),
		benchfmt.Info("events_per_run", "count", events),
		benchfmt.Ceiling("overhead_factor", "x", streamSecs/batchSecs),
		benchfmt.Identical("metrics_bit_identical", identical),
	)
	return finish(rep, path)
}

// poolWorkload is a deterministic pool-maintenance trace: clustered orders
// on a perturbed-grid road graph, released over a two-hour-ish window.
func poolWorkload(g *roadnet.Graph, side, n int, horizon float64, seed int64) []*order.Order {
	rng := rand.New(rand.NewSource(seed*31 + 7))
	type hub struct{ x, y int }
	hubs := make([]hub, 6)
	for i := range hubs {
		hubs[i] = hub{rng.Intn(side), rng.Intn(side)}
	}
	near := func(h hub) geo.NodeID {
		x := clamp(h.x+rng.Intn(9)-4, 0, side-1)
		y := clamp(h.y+rng.Intn(9)-4, 0, side-1)
		return geo.NodeID(y*side + x)
	}
	orders := make([]*order.Order, 0, n)
	for i := 0; i < n; i++ {
		pu := near(hubs[rng.Intn(len(hubs))])
		do := near(hubs[rng.Intn(len(hubs))])
		if pu == do {
			continue
		}
		direct := g.Cost(pu, do)
		release := rng.Float64() * horizon
		tau := 1.3 + rng.Float64()*0.7
		orders = append(orders, &order.Order{
			ID: i + 1, Pickup: pu, Dropoff: do, Riders: 1 + rng.Intn(2),
			Release: release, Deadline: release + tau*direct,
			WaitLimit: 0.8 * direct, DirectCost: direct,
		})
	}
	sort.SliceStable(orders, func(i, j int) bool { return orders[i].Release < orders[j].Release })
	return orders
}

// runPoolTrace replays the workload through one pool — tick-driven expiry,
// insertion and last-call-style group dispatch, the same churn Algorithm 1
// generates — and folds every best-group decision (members, τg, plan cost,
// stops, arrivals) into an FNV digest so two arms can be compared bit for
// bit. Returns the digest, the elapsed wall time and the pool itself.
func runPoolTrace(g *roadnet.Graph, orders []*order.Order, horizon float64, disable bool) (uint64, float64, *pool.Pool) {
	ix := gridindex.New(g, 10)
	planner := route.NewPlanner(g)
	opt := pool.DefaultOptions()
	opt.DisablePlanCache = disable
	p := pool.New(planner, ix, opt)
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	// Record-type tags keep the digest injective: every record starts with
	// a tag word and hashes each field as its own word (no bit packing), so
	// two different decision streams can't collide by compensation.
	const (
		tagReject   = 1
		tagNoGroup  = 2
		tagBest     = 3
		tagDispatch = 4
	)
	start := time.Now()
	next := 0
	for now := 0.0; now <= horizon+300; now += 10 {
		for _, id := range p.ExpireEdges(now) {
			p.Remove(id, now)
			w64(tagReject)
			w64(uint64(id))
		}
		for next < len(orders) && orders[next].Release <= now {
			p.Insert(orders[next], now)
			next++
		}
		for _, id := range p.OrderIDs() {
			if !p.Contains(id) {
				continue // left earlier this pass inside a dispatched group
			}
			bg, exp, ok := p.BestGroup(id)
			if !ok {
				w64(tagNoGroup)
				w64(uint64(id))
				continue
			}
			w64(tagBest)
			w64(uint64(id))
			w64(math.Float64bits(exp))
			w64(math.Float64bits(bg.Plan.Cost))
			for i, s := range bg.Plan.Stops {
				w64(uint64(s.OrderID))
				w64(uint64(s.Node))
				w64(uint64(s.Kind))
				w64(math.Float64bits(bg.Plan.Arrive[i]))
			}
			// Last-call dispatch: the group leaves before its horizon dies.
			if exp < now+30 {
				w64(tagDispatch)
				w64(uint64(id))
				p.RemoveGroup(bg, now)
			}
		}
	}
	return h.Sum64(), time.Since(start).Seconds(), p
}

// runBenchPool measures what the clique plan cache buys on the pool
// maintenance hot path. The primary arm replays a deterministic
// insert/expire/dispatch trace on a perturbed-grid road graph twice —
// memoization on vs off — and verifies every best-group decision is
// bit-identical before reporting the wall-clock ratio. A secondary arm
// runs full CDC simulations (WATTER-online and WATTER-timeout) cache-on
// and cache-off and requires bit-identical Metrics, pinning the
// determinism contract end to end.
func runBenchPool(path string, scale float64, seed int64, quiet bool) error {
	side := int(36 * math.Sqrt(scale))
	if side < 14 {
		side = 14
	}
	n := int(900 * scale)
	if n < 60 {
		return fmt.Errorf("benchpool: scale %.2f too small", scale)
	}
	const horizon = 1800.0
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	g := roadnet.NewPerturbedGrid(side, side, 200, 8, 0.3, seed)
	orders := poolWorkload(g, side, n, horizon, seed)
	logf("benchpool: %dx%d city (%d nodes), %d orders over %.0fs\n",
		side, side, g.NumNodes(), len(orders), horizon)

	ticks := int(horizon+300)/10 + 1
	uncachedDigest, uncachedSecs, _ := runPoolTrace(g, orders, horizon, true)
	logf("benchpool: uncached trace %.3fs\n", uncachedSecs)
	cachedDigest, cachedSecs, cp := runPoolTrace(g, orders, horizon, false)
	logf("benchpool: cached trace %.3fs\n", cachedSecs)
	st := cp.CacheStats()

	// Sim-level determinism: full runs, cache on vs off, bit-identical.
	simAlgs := []string{"WATTER-online", "WATTER-timeout"}
	base := exp.DefaultParams(dataset.CDC())
	base.Seed = seed
	base.Orders = int(float64(base.Orders) * scale)
	base.Workers = int(float64(base.Workers) * scale)
	runner := exp.NewRunner()
	setup, err := runner.Setup(base)
	if err != nil {
		return err
	}
	identical := true
	var simCached, simUncached float64
	for _, name := range simAlgs {
		runSim := func(disable bool) (*sim.Metrics, float64, error) {
			alg, err := runner.Build(name, base)
			if err != nil {
				return nil, 0, err
			}
			fw, ok := alg.(*core.Framework)
			if !ok {
				return nil, 0, fmt.Errorf("benchpool: %s has no pool", name)
			}
			fw.PoolOpt.DisablePlanCache = disable
			plat, err := setup.Platform(fw, false)
			if err != nil {
				return nil, 0, err
			}
			startSim := time.Now()
			m, err := plat.Replay(setup.Orders)
			return m, time.Since(startSim).Seconds(), err
		}
		mc, sc, err := runSim(false)
		if err != nil {
			return err
		}
		mu, su, err := runSim(true)
		if err != nil {
			return err
		}
		simCached += sc
		simUncached += su
		if *mc != *mu {
			identical = false
			logf("benchpool: %s diverged:\ncached:   %+v\nuncached: %+v\n", name, *mc, *mu)
		}
	}

	rep := benchfmt.New("watterbench -benchpool", scale, seed)
	rep.Add(fmt.Sprintf("perturbed-grid-%dx%d", side, side),
		benchfmt.Info("nodes", "count", g.NumNodes()),
		benchfmt.Info("pool_orders", "count", len(orders)),
		benchfmt.Info("ticks", "count", ticks),
		benchfmt.Info("uncached_seconds", "s", uncachedSecs),
		benchfmt.Info("cached_seconds", "s", cachedSecs),
		benchfmt.Floor("speedup", "x", uncachedSecs/cachedSecs),
		benchfmt.Info("cache_hits", "count", st.Hits),
		benchfmt.Info("negative_hits", "count", st.NegativeHits),
		benchfmt.Info("cache_misses", "count", st.Misses),
		benchfmt.Info("renewed", "count", st.Renewed),
		benchfmt.Info("hit_rate", "fraction", st.HitRate()),
		benchfmt.Info("plans_avoided", "count", st.PlansAvoided()),
		benchfmt.Info("plans_materialized", "count", st.PlansMaterialized),
		benchfmt.Info("plans_reused", "count", st.PlansReused),
		benchfmt.Info("pairs_pruned", "count", st.PairsPruned),
		benchfmt.Info("leg_blocks", "count", cp.LegBlocks()),
		benchfmt.Identical("pool_decisions_identical", cachedDigest == uncachedDigest),
	)
	rep.Add("CDC",
		benchfmt.Text("sim_algs", strings.Join(simAlgs, ",")),
		benchfmt.Info("sim_cached_seconds", "s", simCached),
		benchfmt.Info("sim_uncached_seconds", "s", simUncached),
		benchfmt.Identical("metrics_bit_identical", identical),
	)
	if err := finish(rep, path); err != nil {
		return err
	}
	if st.HitRate() <= 0 {
		return fmt.Errorf("benchpool: cache recorded no hits (rate %.3f)", st.HitRate())
	}
	if uncachedSecs <= cachedSecs {
		return fmt.Errorf("benchpool: cached arm (%.3fs) did not beat replan-always (%.3fs)", cachedSecs, uncachedSecs)
	}
	return nil
}

// runBenchShard measures what the insert prewarm engine buys on a single
// simulation: the same Graph-backed city workload (real ALT routing behind
// every pair test, like production road networks) runs through the
// platform at K = 1 and with an insert's pair DPs on K goroutines, for both
// WATTER-online and WATTER-timeout. Metrics must be bit-identical — the
// engine's whole contract — and the report tracks the wall-clock ratio.
// Measured on 2 cores (K = 2), ten runs: median 1.065x, quartiles
// 1.04 / 1.12, range 1.03-1.16, sequential arm ~3 s. More cores are
// unmeasured; DESIGN.md §9 has the full record.
func runBenchShard(path string, scale float64, seed int64, shards int, quiet bool) error {
	side := int(36 * math.Sqrt(scale))
	if side < 14 {
		side = 14
	}
	n := int(900 * scale)
	if n < 60 {
		return fmt.Errorf("benchshard: scale %.2f too small", scale)
	}
	m := int(90 * scale)
	if m < 10 {
		m = 10
	}
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards < 2 {
		shards = 2 // still proves the equivalence contract on 1 core
	}
	const horizon = 1800.0
	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format, args...)
		}
	}
	g := roadnet.NewPerturbedGrid(side, side, 200, 8, 0.3, seed)
	orders := poolWorkload(g, side, n, horizon, seed)
	mkWorkers := func() []*order.Worker {
		rng := rand.New(rand.NewSource(seed*131 + 17))
		ws := make([]*order.Worker, m)
		for i := range ws {
			ws[i] = &order.Worker{ID: i + 1, Loc: geo.NodeID(rng.Intn(side * side)), Capacity: 4}
		}
		return ws
	}
	logf("benchshard: %dx%d city (%d nodes), %d orders, %d workers, K=%d\n",
		side, side, g.NumNodes(), len(orders), m, shards)

	algs := []string{"WATTER-online", "WATTER-timeout"}
	cfg := sim.DefaultConfig()
	runArm := func(name string, k int) (*sim.Metrics, float64, *platform.Platform, error) {
		var fw *core.Framework
		switch name {
		case "WATTER-online":
			fw = core.New(strategy.Online{}, pool.DefaultOptions())
		case "WATTER-timeout":
			fw = core.New(strategy.Timeout{}, pool.DefaultOptions())
		}
		p, err := platform.New(g, mkWorkers(),
			platform.WithConfig(cfg),
			platform.WithTick(10),
			platform.WithMeasuredTime(false),
			platform.WithAlgorithm(fw),
			platform.WithShards(k),
		)
		if err != nil {
			return nil, 0, nil, err
		}
		start := time.Now()
		metrics, err := p.Replay(orders)
		if err != nil {
			return nil, 0, nil, err
		}
		return metrics, time.Since(start).Seconds(), p, nil
	}

	var seqSecs, shardSecs float64
	identical := true
	var prewarmTasks uint64
	for _, name := range algs {
		seqM, ss, _, err := runArm(name, 1)
		if err != nil {
			return err
		}
		shardM, hs, plat, err := runArm(name, shards)
		if err != nil {
			return err
		}
		seqSecs += ss
		shardSecs += hs
		if *seqM != *shardM {
			identical = false
			logf("benchshard: %s diverged:\nK=1: %+v\nK=%d: %+v\n", name, *seqM, shards, *shardM)
		}
		prewarmTasks += plat.Stats().Shard.PrewarmTasks
		logf("benchshard: %s sequential=%.3fs sharded(%d)=%.3fs identical=%v\n",
			name, ss, shards, hs, *seqM == *shardM)
	}

	rep := benchfmt.New("watterbench -benchshard", scale, seed)
	rep.Add(fmt.Sprintf("perturbed-grid-%dx%d", side, side),
		benchfmt.Info("nodes", "count", g.NumNodes()),
		benchfmt.Info("orders", "count", len(orders)),
		benchfmt.Info("workers", "count", m),
		benchfmt.Info("shards", "count", shards),
		benchfmt.Text("algs", strings.Join(algs, ",")),
		benchfmt.Info("sequential_seconds", "s", seqSecs),
		benchfmt.Info("sharded_seconds", "s", shardSecs),
		benchfmt.Floor("speedup", "x", seqSecs/shardSecs),
		benchfmt.Info("prewarm_tasks", "count", prewarmTasks),
		benchfmt.Identical("metrics_bit_identical", identical),
	)
	if err := finish(rep, path); err != nil {
		return err
	}
	if prewarmTasks == 0 {
		return fmt.Errorf("benchshard: the engine never ran a prewarm task")
	}
	return nil
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
