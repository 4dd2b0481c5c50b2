package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"watter/internal/dataset"
	"watter/internal/exp"
	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/shard"
	"watter/internal/sim"
)

// spec is one frozen workload. Sizes are constants of the benchmark: a
// change is judged on the same inputs as its parent. Why each workload
// exists is recorded in BENCHMARK.json and README.md.
type spec struct {
	name string
	// city returns the profile at the given size multiplier (1 outside
	// tests); only metro_ch shrinks its lattice with it.
	city            func(scale float64) dataset.Profile
	orders, workers int
	policy          string
	// traceShards, when above 1, adds to the traced run one replay under
	// that many shards; every other replay runs the sequential check (K=1).
	// Wall time at K=2 on two shared vCPUs depends on whether the host runs
	// them at once, which it does in phases: too unsteady for a bounded
	// end-to-end metric, fine for a per-layer one.
	traceShards int
	// hierarchy builds the contraction hierarchy although the lattice is
	// below the size at which roadnet does so on its own.
	hierarchy bool
}

var specs = []spec{
	{
		name: "cdc_timeout",
		city: func(float64) dataset.Profile { return dataset.CDC() }, orders: 5000, workers: 420,
		policy: "WATTER-timeout",
	},
	{
		name: "cdc_expect",
		city: func(float64) dataset.Profile { return dataset.CDC() }, orders: 5000, workers: 420,
		policy: "WATTER-expect",
	},
	{
		name: "grid_alt",
		city: func(float64) dataset.Profile {
			p := dataset.CDC()
			p.Name, p.RoadJitter, p.RoadSeed = "CDC-ALT", 0.3, 1
			return p
		}, orders: 800, workers: 67,
		policy: "WATTER-timeout", traceShards: 2,
	},
	{
		name: "metro_ch",
		city: metroProfile, orders: 400, workers: 160,
		policy: "WATTER-timeout", hierarchy: true,
	},
}

// trainSteps replaces exp's default 1200 gradient steps for WATTER-expect:
// training is set-up, a run sets up three times, and 150 steps (1.5 s)
// already give a policy within 3 % of the default's extra time.
const trainSteps = 150

// metroSide is the lattice side of metro_ch. At 4096 nodes an order costs
// about 5 ms, so a run affords the few thousand orders its means need to
// hold still from seed to seed, and the hierarchy builds in half a second
// (a run sets up three times).
const metroSide = 64

// metroProfile is dataset.MET() shrunk to side x side with its hotspots
// scaled to match, so demand keeps its shape on the smaller lattice.
func metroProfile(scale float64) dataset.Profile {
	p := dataset.MET()
	side := int(math.Round(metroSide * math.Sqrt(scale)))
	if side < 24 {
		side = 24
	}
	f := float64(side) / float64(p.W)
	p.Name = fmt.Sprintf("MET%d", side)
	p.W, p.H = side, side
	hs := make([]dataset.Hotspot, len(p.Hotspots))
	for i, h := range p.Hotspots {
		hs[i] = dataset.Hotspot{X: h.X * f, Y: h.Y * f, Sigma: h.Sigma * f, Weight: h.Weight}
	}
	p.Hotspots = hs
	return p
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// pooledAlg is what the benchmark needs from a dispatch policy beyond
// sim.Algorithm: the hooks platform.New and Platform.Stats discover by
// type assertion. Both WATTER variants built by exp.Runner satisfy it.
type pooledAlg interface {
	sim.Algorithm
	Pool() *pool.Pool
	ShardEngine() *shard.Engine
	SetTick(float64)
	SetPoolOptions(pool.Options)
	SetShards(int)
}

// instances is how many independent order streams (each with its own
// fleet) a run replays. The dispatcher's cost is far from linear in local
// demand density, so one stream's totals swing by tens of percent from
// seed to seed; every metric is a mean over the instances to damp that.
const instances = 8

// warmUp indexes one more stream after the instances: the one each set-up
// replays untimed. It is the same for every -seed, so that setup_s does
// not carry one stream's seed-to-seed swing.
const warmUp = instances

// instanceSeed spreads one -seed over the streams and fleets of a run
// without ever sharing a generator seed between two of them or between
// two different -seed values.
func instanceSeed(seed int64, i int) int64 { return seed*2*instances + int64(i) }

// workload is a spec materialized from a seed: everything a repeat needs
// that does not change between repeats.
type workload struct {
	spec   spec
	seed   int64
	scale  float64
	params exp.Params
	city   *dataset.City
	orders [instances + 1][]*order.Order
	runner *exp.Runner

	// Set-up phase walls, reported as per-layer metrics.
	buildS, chBuildS, generateS, trainS float64
	heapMB                              float64
}

// buildWorkload runs the set-up a user pays before the first order: city
// (with landmarks and, on metro_ch, the hierarchy), order stream, and for
// WATTER-expect the offline training.
func buildWorkload(s spec, seed int64, scale float64) (*workload, error) {
	p := exp.DefaultParams(s.city(scale))
	p.Orders = scaled(s.orders, scale)
	p.Workers = scaled(s.workers, scale)
	p.Seed = instanceSeed(seed, 0) // the training seed; streams and fleets take their own
	p.Train.HistoricalOrders = scaled(p.Train.HistoricalOrders, scale)
	p.Train.TrainSteps = scaled(trainSteps, scale)
	w := &workload{spec: s, seed: seed, scale: scale, params: p, runner: exp.NewRunner()}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	w.city = p.City.Build()
	if lat, ok := w.city.Net.(*roadnet.Lattice); ok {
		if s.hierarchy {
			lat.EnableHierarchy()
		}
		w.chBuildS = lat.HierarchyBuildSeconds()
	}
	w.buildS = time.Since(t0).Seconds()
	runtime.GC()
	runtime.ReadMemStats(&after)
	w.heapMB = (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)

	t0 = time.Now()
	for i := range w.orders {
		w.orders[i] = w.city.Orders(dataset.WorkloadConfig{Orders: p.Orders, Seed: w.streamSeed(i), TauScale: p.TauScale, Eta: p.Eta})
		if len(w.orders[i]) == 0 {
			return nil, fmt.Errorf("%s: seed %d generated no orders", s.name, seed)
		}
		w.fleet(i)
	}
	w.generateS = time.Since(t0).Seconds()

	if s.policy == "WATTER-expect" {
		t0 = time.Now()
		w.runner.Train(p)
		w.trainS = time.Since(t0).Seconds()
	}
	return w, nil
}

func scaled(n int, scale float64) int {
	v := int(math.Round(float64(n) * scale))
	if v < 8 {
		v = 8
	}
	return v
}

// streamSeed is the generator seed of stream i's orders; its fleet takes
// the seed instances further on.
func (w *workload) streamSeed(i int) int64 {
	if i == warmUp {
		return instanceSeed(0, 0)
	}
	return instanceSeed(w.seed, i)
}

// fleet returns a fresh copy of stream i's initial fleet (dispatching
// mutates workers in place, so every repeat gets its own).
func (w *workload) fleet(i int) []*order.Worker {
	return w.city.Workers(w.params.Workers, w.params.MaxCap, w.streamSeed(i)+instances)
}

// algorithm builds a fresh policy instance; training is cached in the
// runner after set-up.
func (w *workload) algorithm(shards int) (pooledAlg, error) {
	p := w.params
	p.Shards = shards
	alg, err := w.runner.Build(w.spec.policy, p)
	if err != nil {
		return nil, err
	}
	pa, ok := alg.(pooledAlg)
	if !ok {
		return nil, fmt.Errorf("%s: policy %s has no pool", w.spec.name, w.spec.policy)
	}
	return pa, nil
}

// simConfig mirrors exp's mapping of experiment parameters onto the
// platform configuration.
func (w *workload) simConfig() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.GridN = w.params.GridN
	cfg.Capacity = w.params.MaxCap
	return cfg
}

// newPlatform stands up one platform for instance i over net (the city's
// network, or its counting decorator in the traced repeat).
func (w *workload) newPlatform(i int, net roadnet.Network, alg sim.Algorithm, shards int, observer func(platform.Event)) (*platform.Platform, error) {
	opts := []platform.Option{
		platform.WithConfig(w.simConfig()),
		platform.WithTick(w.params.TickEvery),
		platform.WithMeasuredTime(false),
		platform.WithAlgorithm(alg),
		platform.WithShards(shards),
	}
	if observer != nil {
		opts = append(opts, platform.WithObserver(observer))
	}
	return platform.New(net, w.fleet(i), opts...)
}
