// Package exp is the experiment harness: it builds algorithms (including
// the trained WATTER-expect pipeline), runs parameter sweeps for every
// figure of the paper's evaluation (Figures 3-6 plus the appendix
// parameters), and prints the resulting tables.
package exp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"time"

	"watter/internal/baseline"
	"watter/internal/core"
	"watter/internal/dataset"
	"watter/internal/gmm"
	"watter/internal/gridindex"
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
	Seed   int64
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
		City: city, Orders: orders, Workers: workers, TauScale: dataset.DefaultTauScale, Eta: dataset.DefaultEta,
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

// trainedEntry memoizes one offline training run (singleflight per key),
// failures included.
type trainedEntry struct {
	once sync.Once
	m    *Trained
	err  error
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
}

// Setup is one configuration made concrete: the city Params name, the order
// stream they generate, and how every run of them is stood up. Runner.Setup
// is the one place Params become a run — RunOne, both training passes and
// the command-line tools all stand their platforms up through it — so the
// fleet seed, the platform parameters and Δt are mapped once.
type Setup struct {
	Params Params
	City   *dataset.City
	// Orders is the stream to replay. Replay clones what it is given, so
	// every run of the configuration can share it.
	Orders []*order.Order
}

// Setup refuses invalid Params with an error and builds the rest over the
// runner's shared city.
func (r *Runner) Setup(p Params) (*Setup, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	city := r.city(p.City)
	orders := city.Orders(dataset.WorkloadConfig{
		Orders: p.Orders, Seed: p.Seed, TauScale: p.TauScale, Eta: p.Eta,
	})
	return &Setup{Params: p, City: city, Orders: orders}, nil
}

// Fleet returns a fresh copy of the configuration's initial fleet:
// dispatching moves workers in place, so every run takes its own.
func (s *Setup) Fleet() []*order.Worker {
	return s.City.Workers(s.Params.Workers, s.Params.MaxCap, s.Params.Seed+1000)
}

// Config returns the platform parameters the configuration runs under.
func (s *Setup) Config() sim.Config {
	cfg := sim.DefaultConfig()
	cfg.GridN = s.Params.GridN
	cfg.Capacity = s.Params.MaxCap
	return cfg
}

// Options returns the platform options of every run of the configuration:
// its parameters and Δt, and whether algorithm hooks are timed.
func (s *Setup) Options(measure bool) []platform.Option {
	return []platform.Option{
		platform.WithConfig(s.Config()),
		platform.WithTick(s.Params.TickEvery),
		platform.WithMeasuredTime(measure),
	}
}

// Platform stands alg up over the city and a fresh fleet — the harness is a
// client of the same streaming API live feeds use.
func (s *Setup) Platform(alg sim.Algorithm, measure bool) (*platform.Platform, error) {
	return platform.New(s.City.Net, s.Fleet(), append(s.Options(measure), platform.WithAlgorithm(alg))...)
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
// blended TD + target loss. It returns nil when training fails; Build
// reports why.
func (r *Runner) Train(p Params) *Trained {
	m, _ := r.trained(p)
	return m
}

// trained is Train with its error: the memo keeps both, so every caller of a
// key sees the one outcome.
func (r *Runner) trained(p Params) (*Trained, error) {
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
	e.once.Do(func() { e.m, e.err = r.train(p) })
	return e.m, e.err
}

func (r *Runner) train(p Params) (*Trained, error) {
	start := time.Now() //det:wallclock training wall-time for the progress log line; never feeds model or simulation state
	seed := trainSeed(p)
	// The historical day is a run of its own: a HistoricalOrders stream and
	// a fleet drawn from the training seed.
	hp := p
	hp.Orders = p.Train.HistoricalOrders
	hp.Seed = seed + 77
	hist, err := r.Setup(hp)
	if err != nil {
		return nil, fmt.Errorf("exp: invalid training configuration: %w", err)
	}

	// Pass 1: behavior run to harvest extra times for the GMM.
	var extraTimes []float64
	plat, err := hist.Platform(core.New(strategy.Timeout{}, poolOptions(p)), false)
	if err != nil {
		return nil, fmt.Errorf("exp: invalid training configuration: %w", err)
	}
	feat := mdp.NewFeaturizer(plat.Env().Index, horizonOf(hist.Orders))
	feat.SlotSeconds = p.TickEvery
	plat.Env().Observe(func(ev sim.Event) {
		// Harvest in event order (the group's member order): the GMM fit
		// folds samples in sequence, so collection order must be
		// deterministic for the offline pipeline to be reproducible per
		// seed (§8).
		if d, ok := ev.(sim.GroupDispatched); ok {
			for _, r := range d.Orders {
				extraTimes = append(extraTimes, order.ExtraTime(r.Detour, r.Response))
			}
		}
	})
	if _, err := plat.Replay(hist.Orders); err != nil {
		return nil, fmt.Errorf("exp: behavior simulation failed: %w", err)
	}

	// Fit the extra-time mixture and derive θ*. Too few samples, or a
	// failed fit, falls back to one fixed Gaussian, and the log line says so.
	model, fallback := fitExtraTimes(extraTimes, p.Train.GMMComponents, seed)
	theta := gmm.NewThresholdSource(model)

	// Pass 2: collect MDP experience under the GMM-threshold policy.
	trainer := mdp.NewTrainer(feat.Dim(), mdp.TrainerConfig{
		Hidden: p.Train.Hidden, Omega: p.Train.Omega, Seed: seed,
	})
	fw2 := core.New(&strategy.Threshold{Source: theta}, poolOptions(p))
	plat2, err := hist.Platform(mdp.NewCollector(fw2, feat, theta, trainer.Add), false)
	if err != nil {
		return nil, fmt.Errorf("exp: invalid training configuration: %w", err)
	}
	if _, err := plat2.Replay(hist.Orders); err != nil {
		return nil, fmt.Errorf("exp: experience collection failed: %w", err)
	}

	loss := trainer.Train(p.Train.TrainSteps)
	elapsed := time.Since(start).Round(time.Millisecond) //det:wallclock elapsed goes to the progress log only
	r.logf("[train %s] samples=%d extra-times=%d%s loss=%.1f elapsed=%s\n",
		p.City.Name, trainer.ReplayLen(), len(extraTimes), fallback, loss, elapsed)

	return &Trained{Feat: feat, Net: trainer.Network(), Trainer: trainer, GMM: model}, nil
}

// minExtraTimes is the fewest harvested extra times fitExtraTimes fits a
// mixture to.
const minExtraTimes = 10

// fitExtraTimes fits the K-component extra-time mixture. With fewer than
// minExtraTimes samples, or when the fit fails, it returns a fixed Gaussian
// (mean 120 s, sd 60 s) and a note for the training log line naming that
// fallback and why; after a real fit the note is empty.
func fitExtraTimes(extraTimes []float64, k int, seed int64) (*gmm.Model, string) {
	reason := fmt.Sprintf("%d extra times, need %d", len(extraTimes), minExtraTimes)
	if len(extraTimes) >= minExtraTimes {
		m, err := gmm.Fit(extraTimes, gmm.FitOptions{K: k, Seed: seed})
		if err == nil {
			return m, ""
		}
		reason = err.Error()
	}
	fixed := &gmm.Model{Components: []gmm.Component{{Weight: 1, Mean: 120, StdDev: 60}}}
	return fixed, fmt.Sprintf(" gmm=fallback(mean 120 s, sd 60 s: %s)", reason)
}

// modelKey identifies the offline-model cache entry for a configuration.
// Every parameter that changes the offline artifacts must appear here —
// the learning hyperparameters included, or ablation sweeps would silently
// reuse one model.
func modelKey(p Params) string {
	return fmt.Sprintf("%s/n%d/m%d/tau%s/eta%s/k%d/g%d/dt%s/h%d/s%d/K%d/w%s/hid%v",
		p.City.Name, p.Train.HistoricalOrders, p.Workers, exact(p.TauScale), exact(p.Eta),
		p.MaxCap, p.GridN, exact(p.TickEvery), p.Train.TrainSteps, trainSeed(p),
		p.Train.GMMComponents, exact(p.Train.Omega), p.Train.Hidden)
}

// exact formats x so that two keys agree only when the floats do.
func exact(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

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

// Build constructs a ready-to-run algorithm by name. WATTER-expect
// triggers (cached) offline training. Invalid Params, and a training run
// that fails, come back as errors.
func (r *Runner) Build(name string, p Params) (sim.Algorithm, error) {
	if err := validate(p); err != nil {
		return nil, err
	}
	switch name {
	case "GDP":
		return &baseline.GDP{}, nil
	case "GAS":
		return &baseline.GAS{}, nil
	case "WATTER-online":
		fw := core.New(strategy.Online{}, poolOptions(p))
		fw.SetShards(p.Shards)
		return fw, nil
	case "WATTER-timeout":
		fw := core.New(strategy.Timeout{}, poolOptions(p))
		fw.SetShards(p.Shards)
		return fw, nil
	case "WATTER-expect":
		trained, err := r.trained(p)
		if err != nil {
			return nil, err
		}
		fw := core.New(nil, poolOptions(p))
		fw.SetShards(p.Shards)
		// The trained bundle is shared across jobs; the source, which owns
		// every buffer inference writes, is this job's alone.
		src := &mdp.ValueThresholdSource{Net: trained.Net, Feat: trained.Feat}
		fw.Decide = &strategy.Threshold{Source: src}
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
// worker index into three histograms allocated here, once per run, and
// re-reads them only when their generation counters (or the clock) say the
// histograms may have moved.
func (a *expectAlg) Init(env *sim.Env) {
	a.Framework.Init(env)
	p, wi := a.Pool(), env.WIndex
	pu, do, sw := env.Index.NewDistribution(), env.Index.NewDistribution(), env.Index.NewDistribution()
	a.src.Demand = func() (gridindex.Distribution, gridindex.Distribution) {
		p.FillDemand(pu, do)
		return pu, do
	}
	a.src.Supply = func(now float64) gridindex.Distribution {
		wi.FillSupply(sw, now)
		return sw
	}
	a.src.Watch(func() (uint64, uint64) { return p.DemandGeneration(), wi.Generation() })
}

// ErrInvalidParams is wrapped by every refusal of a Params: a configuration
// error, reported before anything is built or trained.
var ErrInvalidParams = errors.New("exp: invalid parameters")

// validate refuses what the cell's construction would otherwise panic on
// (possibly on a sweep worker goroutine) or reject only at its first order:
// negative order and fleet sizes (evaluation and historical), deadline and
// wait-limit scales that are not finite and positive, value-network layers
// without units, the platform parameters and the tick interval
// (WATTER-expect's training builds platforms from both). It also refuses
// what training would otherwise fit or save without a word: fewer than one
// GMM component, and a loss blend ω that is NaN or outside [0, 1].
func validate(p Params) error {
	for _, n := range []struct {
		name string
		v    int
	}{{"Orders", p.Orders}, {"Workers", p.Workers}, {"Train.HistoricalOrders", p.Train.HistoricalOrders}} {
		if n.v < 0 {
			return fmt.Errorf("%w: %s = %d is negative", ErrInvalidParams, n.name, n.v)
		}
	}
	for _, s := range []struct {
		name string
		v    float64
	}{{"TauScale", p.TauScale}, {"Eta", p.Eta}} {
		if !(s.v > 0) || math.IsInf(s.v, 1) {
			return fmt.Errorf("%w: %s = %v must be finite and positive", ErrInvalidParams, s.name, s.v)
		}
	}
	for _, h := range p.Train.Hidden {
		if h < 1 {
			return fmt.Errorf("%w: Train.Hidden = %v: every layer needs at least one unit", ErrInvalidParams, p.Train.Hidden)
		}
	}
	if p.Train.GMMComponents < 1 {
		return fmt.Errorf("%w: Train.GMMComponents = %d: the mixture needs at least one component", ErrInvalidParams, p.Train.GMMComponents)
	}
	if !(p.Train.Omega >= 0 && p.Train.Omega <= 1) {
		return fmt.Errorf("%w: Train.Omega = %v must lie in [0, 1]", ErrInvalidParams, p.Train.Omega)
	}
	if err := (&Setup{Params: p}).Config().Validate(); err != nil {
		return fmt.Errorf("%w: %w", ErrInvalidParams, err)
	}
	if err := platform.ValidateTick(p.TickEvery); err != nil {
		return fmt.Errorf("%w: TickEvery: %w", ErrInvalidParams, err)
	}
	return nil
}

// RunOne executes one (algorithm, params) cell and returns its result.
// The cell runs as a client of the streaming platform API; invalid
// parameters surface here as errors, before anything is built or trained,
// instead of silent defaults.
func (r *Runner) RunOne(name string, p Params) (*Result, error) {
	s, err := r.Setup(p)
	if err != nil {
		return nil, err
	}
	alg, err := r.Build(name, p)
	if err != nil {
		return nil, err
	}
	plat, err := s.Platform(alg, true)
	if err != nil {
		return nil, err
	}
	start := time.Now() //det:wallclock cell wall-time for Result.Elapsed reporting; never feeds simulation state
	metrics, err := plat.Replay(s.Orders)
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
