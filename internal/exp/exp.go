// Package exp is the experiment harness: it builds algorithms (including
// the trained WATTER-expect pipeline), runs parameter sweeps for every
// figure of the paper's evaluation (Figures 3-6 plus the appendix
// parameters), and prints the resulting tables.
package exp

import (
	"fmt"
	"io"
	"sync"
	"time"

	"watter/internal/baseline"
	"watter/internal/core"
	"watter/internal/dataset"
	"watter/internal/gmm"
	"watter/internal/load"
	"watter/internal/mdp"
	"watter/internal/nn"
	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/pool"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// Params is one experiment configuration point.
type Params struct {
	City      dataset.Profile
	Orders    int     // n
	Workers   int     // m
	TauScale  float64 // deadline scale
	Eta       float64 // watching window scale
	MaxCap    int     // Kw
	GridN     int     // spatial index side
	TickEvery float64 // Δt
	// Shards is how many goroutines run an insert's pairwise prewarm (0
	// and 1 both mean inline). The pairs merge in candidate order, so
	// results are bit-identical at any value; baselines without a pool
	// ignore it.
	Shards int
	// Arrival, when its Process is set, replaces the dataset's rush-hour
	// arrival times with an open-loop arrival process schedule
	// (load.ArrivalSpec: Poisson, surge or Pareto at a configured rate) —
	// the load harness's process abstraction doubling as a sweep axis, so
	// "how does each algorithm hold up under a surge" is an ordinary
	// experiment cell. Deadlines follow the re-timed releases through
	// load.Retime; everything stays deterministic under the spec's seed.
	Arrival load.ArrivalSpec
	// NumCities runs the cell as a multi-city front tier: N instances of
	// City (seed-derived independent workloads and fleets) behind one
	// dispatch proxy, metrics aggregated across cities. 0 and 1 both mean
	// a single standalone platform. City 0 always replays the single-city
	// cell's exact workload, so cities=1 rows and plain rows agree.
	NumCities int
	Seed      int64
	// Train tunes the offline pipeline for WATTER-expect.
	Train TrainParams
}

// TrainParams sizes the offline stage (historical simulation + learning).
type TrainParams struct {
	HistoricalOrders int
	TrainSteps       int
	GMMComponents    int
	Omega            float64
	Hidden           []int
	// Seed pins the offline pipeline's random seed independently of the
	// evaluation seed. Zero means "follow Params.Seed" (every evaluation
	// seed trains its own model); the sweep engine sets it so replicate
	// runs share one trained model instead of retraining per seed.
	Seed int64
}

// trainSeed returns the seed driving the offline pipeline.
func trainSeed(p Params) int64 {
	if p.Train.Seed != 0 {
		return p.Train.Seed
	}
	return p.Seed
}

// DefaultParams returns the scaled-down defaults used by the benchmark
// harness. The paper's defaults are 100 K orders (NYC) / 50 K (CDC, XIA)
// against 5 K workers over a day; we keep comparable fleet-pressure over a
// compressed 2 h peak window at roughly 1/25 scale. Full scale is reachable
// by raising Orders/Workers proportionally.
func DefaultParams(city dataset.Profile) Params {
	orders, workers := 2000, 170
	if city.Name == "NYC" {
		orders, workers = 3000, 220
	}
	return Params{
		City: city, Orders: orders, Workers: workers, TauScale: 1.6, Eta: 0.8,
		MaxCap: 4, GridN: 10, TickEvery: 10, Seed: 1,
		Train: TrainParams{
			HistoricalOrders: 1500, TrainSteps: 1200, GMMComponents: 3,
			Omega: 0.5, Hidden: []int{64, 32},
		},
	}
}

// Result is one (algorithm, configuration) measurement.
type Result struct {
	Alg    string
	Params Params
	// X is the sweep's varied-parameter value for this cell.
	X       float64
	Metrics *sim.Metrics
	Elapsed time.Duration
}

// AlgNames lists the five compared algorithms in the paper's order.
var AlgNames = []string{"GDP", "GAS", "WATTER-expect", "WATTER-online", "WATTER-timeout"}

// Runner caches trained models per (city, train-config) so sweeps don't
// retrain for every point, and built cities per profile so concurrent runs
// share one road network (and, for Graph-backed networks, one distance
// cache). Runner is safe for concurrent use by the sweep engine: training
// is deduplicated per model key, so N workers needing the same model block
// on a single training pass.
type Runner struct {
	mu     sync.Mutex
	models map[string]*trainedEntry
	cities map[string]*dataset.City
	// Out receives progress lines; nil silences them.
	Out   io.Writer
	outMu sync.Mutex
}

// trainedEntry memoizes one offline training run (singleflight per key).
type trainedEntry struct {
	once sync.Once
	m    *Trained
}

// NewRunner returns an empty runner.
func NewRunner() *Runner {
	return &Runner{
		models: make(map[string]*trainedEntry),
		cities: make(map[string]*dataset.City),
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Out != nil {
		r.outMu.Lock()
		fmt.Fprintf(r.Out, format, args...)
		r.outMu.Unlock()
	}
}

// city returns the shared built city for a profile. Cities are stateless
// after construction (the workload RNG lives in the caller), so one
// instance can serve many concurrent runs.
func (r *Runner) city(p dataset.Profile) *dataset.City {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.cities[p.Name]; ok {
		return c
	}
	c := p.Build()
	r.cities[p.Name] = c
	return c
}

// Trained bundles the offline artifacts behind WATTER-expect. Net is the
// value network used online; Trainer is non-nil only for freshly trained
// models (bundles loaded from disk have no training state).
type Trained struct {
	Feat    *mdp.Featurizer
	Net     *nn.MLP
	Trainer *mdp.Trainer
	GMM     *gmm.Model
	Theta   *gmm.ThresholdSource
}

// Workload materializes the orders and workers for a configuration.
func Workload(p Params) (*dataset.City, []*order.Order, []*order.Worker) {
	return workloadIn(p.City.Build(), p)
}

// workload is Workload over the runner's shared city instance.
func (r *Runner) workload(p Params) (*dataset.City, []*order.Order, []*order.Worker) {
	return workloadIn(r.city(p.City), p)
}

func workloadIn(city *dataset.City, p Params) (*dataset.City, []*order.Order, []*order.Worker) {
	orders := city.Orders(dataset.WorkloadConfig{
		Orders: p.Orders, Seed: p.Seed, TauScale: p.TauScale, Eta: p.Eta,
	})
	if p.Arrival.Process != "" {
		// Open-loop arrival axis: keep the city's endpoint sampling, swap
		// the release schedule for the configured process over the default
		// workload window. Times returns at most as many arrivals as fit
		// the horizon; Retime drops whichever side is longer.
		wcfg := dataset.WorkloadConfig{}.Defaults()
		times, err := p.Arrival.Times(wcfg.HorizonSeconds)
		if err != nil {
			panic(fmt.Sprintf("exp: invalid arrival spec: %v", err))
		}
		orders = load.Retime(orders, times, p.TauScale)
	}
	workers := city.Workers(p.Workers, p.MaxCap, p.Seed+1000)
	return city, orders, workers
}

// simConfig maps experiment parameters onto validated platform config.
func simConfig(p Params) sim.Config {
	cfg := sim.DefaultConfig()
	cfg.GridN = p.GridN
	cfg.Capacity = p.MaxCap
	return cfg
}

// newPlatform stands a service instance up for one configuration cell —
// the harness is a client of the same streaming API live feeds use.
func newPlatform(city *dataset.City, workers []*order.Worker, alg sim.Algorithm, p Params, measure bool) (*platform.Platform, error) {
	return platform.New(city.Net, workers,
		platform.WithConfig(simConfig(p)),
		platform.WithTick(p.TickEvery),
		platform.WithMeasuredTime(measure),
		platform.WithAlgorithm(alg),
	)
}

func poolOptions(p Params) pool.Options {
	opt := pool.DefaultOptions()
	opt.Capacity = p.MaxCap
	opt.MaxGroupSize = p.MaxCap
	return opt
}

// Train runs the offline stage for WATTER-expect on a *historical* workload
// (a different seed/day than evaluation): simulate the pooling framework
// under the timeout behavior policy, record served extra times for the GMM
// fit, collect MDP experience, then optimize the value network with the
// blended TD + target loss.
func (r *Runner) Train(p Params) *Trained {
	key := modelKey(p)
	r.mu.Lock()
	e, ok := r.models[key]
	if !ok {
		e = &trainedEntry{}
		r.models[key] = e
	}
	r.mu.Unlock()
	// Singleflight: concurrent callers needing the same model block here
	// while exactly one of them trains it.
	e.once.Do(func() { e.m = r.train(p) })
	return e.m
}

func (r *Runner) train(p Params) *Trained {
	start := time.Now() //det:wallclock training wall-time for the progress log line; never feeds model or simulation state
	seed := trainSeed(p)
	city := r.city(p.City)
	hist := city.Orders(dataset.WorkloadConfig{
		Orders: p.Train.HistoricalOrders, Seed: seed + 77, TauScale: p.TauScale, Eta: p.Eta,
	})
	workers := city.Workers(p.Workers, p.MaxCap, seed+1077)

	// Pass 1: behavior run to harvest extra times for the GMM.
	var extraTimes []float64
	fw := core.New(strategy.Timeout{Tick: p.TickEvery}, poolOptions(p))
	plat, err := newPlatform(city, workers, fw, p, false)
	if err != nil {
		panic(fmt.Errorf("exp: invalid training configuration: %w", err))
	}
	feat := mdp.NewFeaturizer(plat.Env().Index, horizonOf(hist))
	feat.SlotSeconds = p.TickEvery
	plat.Env().Observe(func(ev sim.Event) {
		// Harvest in event order (the group's member order): the GMM fit
		// folds samples in sequence, so collection order must be
		// deterministic for the offline pipeline to be reproducible per
		// seed (§8). α = β = 1; detour first, as order.ExtraTime sums it.
		if d, ok := ev.(sim.GroupDispatched); ok {
			for _, r := range d.Orders {
				extraTimes = append(extraTimes, r.Detour+r.Response)
			}
		}
	})
	if _, err := plat.Replay(hist); err != nil {
		panic(fmt.Errorf("exp: behavior simulation failed: %w", err))
	}

	// Fit the extra-time mixture and derive θ*.
	var model *gmm.Model
	if len(extraTimes) >= 10 {
		fitted, err := gmm.Fit(extraTimes, gmm.FitOptions{
			K: p.Train.GMMComponents, MaxIters: 200, Tol: 1e-6, Seed: seed, MinStdDev: 1,
		})
		if err == nil {
			model = fitted
		}
	}
	if model == nil {
		model = &gmm.Model{Components: []gmm.Component{{Weight: 1, Mean: 120, StdDev: 60}}}
	}
	theta := gmm.NewThresholdSource(model)

	// Pass 2: collect MDP experience under the GMM-threshold policy.
	tcfg := mdp.DefaultTrainerConfig()
	tcfg.Omega = p.Train.Omega
	tcfg.Hidden = p.Train.Hidden
	tcfg.Seed = seed
	trainer := mdp.NewTrainer(feat.Dim(), tcfg)
	fw2 := core.New(&strategy.Threshold{Source: theta, Alpha: 1, Beta: 1}, poolOptions(p))
	fw2.Tick = p.TickEvery
	col := mdp.NewCollector(fw2, feat, theta, trainer.Add)
	plat2, err := newPlatform(city, city.Workers(p.Workers, p.MaxCap, seed+1077), col, p, false)
	if err != nil {
		panic(fmt.Errorf("exp: invalid training configuration: %w", err))
	}
	if _, err := plat2.Replay(hist); err != nil {
		panic(fmt.Errorf("exp: experience collection failed: %w", err))
	}

	loss := trainer.Train(p.Train.TrainSteps)
	elapsed := time.Since(start).Round(time.Millisecond) //det:wallclock elapsed goes to the progress log only
	r.logf("[train %s] samples=%d extra-times=%d loss=%.1f elapsed=%s\n",
		p.City.Name, trainer.ReplayLen(), len(extraTimes), loss, elapsed)

	return &Trained{Feat: feat, Net: trainer.Network(), Trainer: trainer, GMM: model, Theta: theta}
}

// modelKey identifies the offline-model cache entry for a configuration.
// Every parameter that changes the offline artifacts must appear here —
// the learning hyperparameters included, or ablation sweeps would silently
// reuse one model.
func modelKey(p Params) string {
	return fmt.Sprintf("%s/n%d/m%d/tau%.2f/eta%.2f/k%d/g%d/dt%.0f/h%d/s%d/K%d/w%.3f/hid%v",
		p.City.Name, p.Train.HistoricalOrders, p.Workers, p.TauScale, p.Eta,
		p.MaxCap, p.GridN, p.TickEvery, p.Train.TrainSteps, trainSeed(p),
		p.Train.GMMComponents, p.Train.Omega, p.Train.Hidden)
}

// UseModel pre-seeds the model cache so a later Build/RunOne of
// WATTER-expect at these parameters uses the given (typically
// disk-loaded) model instead of retraining.
func (r *Runner) UseModel(p Params, m *Trained) {
	e := &trainedEntry{m: m}
	e.once.Do(func() {}) // mark resolved
	r.mu.Lock()
	r.models[modelKey(p)] = e
	r.mu.Unlock()
}

// ModelCount reports how many offline models the runner has cached or is
// currently training (used by tests to verify training deduplication).
func (r *Runner) ModelCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.models)
}

// Build constructs a ready-to-run algorithm by name. WATTER-expect
// triggers (cached) offline training.
func (r *Runner) Build(name string, p Params) (sim.Algorithm, error) {
	switch name {
	case "GDP":
		return &baseline.GDP{}, nil
	case "GAS":
		return &baseline.GAS{BatchSeconds: 5}, nil
	case "WATTER-online":
		fw := core.New(strategy.Online{}, poolOptions(p))
		fw.Tick = p.TickEvery
		fw.SetShards(p.Shards)
		return fw, nil
	case "WATTER-timeout":
		fw := core.New(strategy.Timeout{Tick: p.TickEvery}, poolOptions(p))
		fw.Tick = p.TickEvery
		fw.SetShards(p.Shards)
		return fw, nil
	case "WATTER-expect":
		trained := r.Train(p)
		fw := core.New(nil, poolOptions(p))
		fw.Tick = p.TickEvery
		fw.SetShards(p.Shards)
		// The trained bundle is shared across jobs; the source, which owns
		// every buffer inference writes, is this job's alone.
		src := &mdp.ValueThresholdSource{Net: trained.Net, Feat: trained.Feat}
		fw.Decide = &strategy.Threshold{Source: src, Alpha: 1, Beta: 1}
		return &expectAlg{Framework: fw, src: src}, nil
	}
	return nil, fmt.Errorf("exp: unknown algorithm %q", name)
}

// expectAlg wires the threshold source to the live pool and fleet once
// they exist.
type expectAlg struct {
	*core.Framework
	src *mdp.ValueThresholdSource
}

// Init implements sim.Algorithm: the source reads this run's pool and
// worker index, and re-reads them only when their generation counters (or
// the clock) say the histograms may have moved.
func (a *expectAlg) Init(env *sim.Env) {
	a.Framework.Init(env)
	p, wi := a.Pool(), env.WIndex
	a.src.Demand = p.DemandDistributions
	a.src.Supply = wi.SupplyDistribution
	a.src.Watch(func() (uint64, uint64) { return p.DemandGeneration(), wi.Generation() })
}

// MustBuild is Build for algorithm names known at compile time; it panics
// on unknown names.
func MustBuild(name string, p Params) sim.Algorithm {
	alg, err := NewRunner().Build(name, p)
	if err != nil {
		panic(err)
	}
	return alg
}

// validate refuses what the cell's construction would otherwise panic on,
// possibly on a sweep worker goroutine: the platform parameters and the
// tick interval (WATTER-expect's training builds platforms from both) and
// the arrival process workloadIn schedules.
func validate(p Params) error {
	if err := simConfig(p).Validate(); err != nil {
		return err
	}
	if err := (sim.RunOptions{TickEvery: p.TickEvery}).Validate(); err != nil {
		return err
	}
	if p.Arrival.Process != "" {
		return p.Arrival.Defaults(dataset.WorkloadConfig{}.Defaults().HorizonSeconds).Validate()
	}
	return nil
}

// RunOne executes one (algorithm, params) cell and returns its result.
// The cell runs as a client of the streaming platform API; invalid
// parameters surface here as errors, before anything is built or trained,
// instead of silent defaults.
func (r *Runner) RunOne(name string, p Params) (*Result, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	if p.NumCities > 1 {
		return r.runProxyCell(name, p)
	}
	alg, err := r.Build(name, p)
	if err != nil {
		return nil, err
	}
	city, orders, workers := r.workload(p)
	plat, err := newPlatform(city, workers, alg, p, true)
	if err != nil {
		return nil, err
	}
	start := time.Now() //det:wallclock cell wall-time for Result.Elapsed reporting; never feeds simulation state
	metrics, err := plat.Replay(orders)
	if err != nil {
		return nil, err
	}
	//det:wallclock Result.Elapsed is an observability field, outside per-seed metrics
	res := &Result{Alg: name, Params: p, Metrics: metrics, Elapsed: time.Since(start)}
	r.logf("[%s %s] n=%d m=%d tau=%.1f: %s\n", p.City.Name, name, p.Orders, p.Workers, p.TauScale, metrics)
	return res, nil
}

func horizonOf(orders []*order.Order) float64 {
	var h float64
	for _, o := range orders {
		if o.Release > h {
			h = o.Release
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}
