// Package watter is the public API of this reproduction of "Wait to be
// Faster: a Smart Pooling Framework for Dynamic Ridesharing" (ICDE 2024).
//
// The package is organized around an event-driven Platform: a validated,
// service-shaped front over the simulation machinery. Orders stream in one
// at a time (Submit), the periodic check advances on demand (Tick), and a
// synchronous observer (WithObserver) sees admissions, dispatches,
// rejections and tick snapshots as they happen — the surface live
// dashboards, loggers and admission controllers build on. Construction goes
// through functional options that validate and return errors instead of
// silently defaulting:
//
//	city := watter.CityCDC().Build()
//	workers := city.Workers(170, 4, 2)
//	p, err := watter.New(city.Net, workers,
//	    watter.WithTick(10),
//	    watter.WithAlgorithm(watter.NewTimeout()),
//	    watter.WithObserver(func(ev watter.Event) { // runs on the feeding goroutine
//	        if d, ok := ev.(watter.GroupDispatched); ok {
//	            fmt.Printf("t=%.0fs worker %d takes %d orders\n", d.Time, d.WorkerID, d.Size())
//	        }
//	    }),
//	)
//	if err != nil { ... }
//	for _, o := range city.Orders(watter.WorkloadConfig{Orders: 2000, Seed: 1}) {
//	    if err := p.Submit(o); err != nil { ... }
//	}
//	metrics, err := p.Close()
//
// Paper-replication mode — the batch entry point the evaluation harness
// uses — runs on the same platform: Replay clones a pre-materialized
// workload, sorts it by release, feeds it through the platform's clock and
// closes it, producing bit-identical metrics to the pre-redesign batch
// runner (enforced by a property test):
//
//	p, err := watter.New(city.Net, workers, watter.WithAlgorithm(watter.NewTimeout()))
//	if err != nil { ... }
//	metrics, err := p.Replay(orders)
//
// The rest of the package re-exports the pieces a downstream user
// composes: road networks and synthetic cities (CityNYC/CityCDC/CityXIA),
// the pooling framework's three dispatch strategies (NewOnline,
// NewTimeout, NewExpect via TrainExpect), the GDP and GAS baselines, and
// the parallel experiment harness (NewSweepRunner). See examples/ for
// complete programs — examples/live is the streaming quickstart — and
// DESIGN.md for the system map.
package watter

import (
	"watter/internal/baseline"
	"watter/internal/core"
	"watter/internal/dataset"
	"watter/internal/exp"
	"watter/internal/load"
	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/pool"
	"watter/internal/proxy"
	"watter/internal/roadnet"
	"watter/internal/shard"
	"watter/internal/sim"
	"watter/internal/stats"
	"watter/internal/strategy"
)

// Re-exported domain types.
type (
	// Order is a ride request (paper Definition 1).
	Order = order.Order
	// Worker is a driver/vehicle (paper Definition 2).
	Worker = order.Worker
	// Group is a set of orders sharing one route.
	Group = order.Group
	// Metrics carries the four evaluation measurements.
	Metrics = sim.Metrics
	// Env is the simulated ridesharing platform state an Algorithm
	// dispatches through; every Platform owns one.
	Env = sim.Env
	// Config fixes platform parameters (grid size, capacity). The METRS
	// objective has no settings: extra time weighs detour and response by
	// 1, a rejection costs 10 x cost(lp, ld) in Unified Cost.
	Config = sim.Config
	// Algorithm is any dispatch policy the platform can drive.
	Algorithm = sim.Algorithm
	// WorkloadConfig parameterizes synthetic order generation.
	WorkloadConfig = dataset.WorkloadConfig
	// CityProfile describes a synthetic city's demand structure.
	CityProfile = dataset.Profile
	// City is a materialized synthetic city.
	City = dataset.City
	// Network is the travel-time oracle all components share.
	Network = roadnet.Network
	// RoadGraph is an explicit road network answering exact shortest-path
	// queries on the ALT routing engine or, at city scale, a contraction
	// hierarchy (both precomputed at build).
	RoadGraph = roadnet.Graph
	// RoadGraphBuilder accumulates nodes and edges into a RoadGraph.
	RoadGraphBuilder = roadnet.GraphBuilder
	// PoolCacheStats counts the shareability graph's plan-cache traffic
	// (hits, negative hits, plans avoided/materialized).
	PoolCacheStats = pool.CacheStats
	// ShardStats counts the insert prewarm engine's work: PrewarmTasks,
	// the pairwise plans run on its goroutines. Its other fields are
	// deprecated and always 0.
	ShardStats = shard.Stats
	// ExperimentParams is one experiment configuration point.
	ExperimentParams = exp.Params
	// ExperimentResult is one (algorithm, configuration) measurement.
	ExperimentResult = exp.Result
	// SweepMatrix is a full experiment grid (algorithms × cities × loads ×
	// capacities × deadlines × replicate seeds).
	SweepMatrix = exp.Matrix
	// SweepRunner executes matrices over a bounded worker pool with
	// bit-identical results at any parallelism.
	SweepRunner = exp.SweepRunner
	// SweepResult bundles a matrix execution's raw results and summaries.
	SweepResult = exp.SweepResult
	// CellSummary aggregates one configuration cell across replicate seeds.
	CellSummary = exp.CellSummary
	// MetricSummary is a cross-seed sample summary (mean/stddev/CI95).
	MetricSummary = stats.Summary
)

// The event-driven platform surface.
type (
	// Platform is a ridesharing service instance: streaming order
	// ingestion (Submit/Tick/Close), typed events for one observer
	// (WithObserver), and batch replay (Replay) over one network, fleet and
	// algorithm.
	Platform = platform.Platform
	// PlatformOption configures New; invalid values surface as errors.
	PlatformOption = platform.Option
	// Event is one observable platform outcome; the concrete variants
	// are OrderAdmitted, GroupDispatched, OrderRejected, TickCompleted.
	// The simulator records each outcome once and builds its event from
	// the same values it folds into the metrics, so the event stream and
	// the final metrics agree bit for bit; the platform hands each one to
	// the WithObserver callback.
	Event = platform.Event
	// OrderAdmitted fires when an order enters the platform.
	OrderAdmitted = platform.OrderAdmitted
	// GroupDispatched fires when a group is booked on a worker, or when a
	// schedule-based baseline completes one order; Orders holds the served
	// members' response and detour records.
	GroupDispatched = platform.GroupDispatched
	// OrderRejected fires when an order is rejected, with its penalties.
	OrderRejected = platform.OrderRejected
	// TickCompleted fires after each periodic check with a metrics
	// snapshot (all fields deterministic except DecisionSeconds).
	TickCompleted = platform.TickCompleted
	// ServiceRecord is one served order's share of a dispatch: its
	// response (dispatch minus release) and detour seconds.
	ServiceRecord = platform.ServiceRecord
	// PlatformStats is the unified observability snapshot of one platform:
	// the closed flag, the order ledger, and the prewarm and pool-cache
	// counters in one struct.
	PlatformStats = platform.Stats
	// OrderCounts is PlatformStats' submitted/served/rejected/pending
	// ledger.
	OrderCounts = platform.OrderCounts
)

// The multi-city front tier: one Proxy owns N independent city Platforms
// behind a single routing, journal and admin/ops surface.
type (
	// Proxy routes order streams to N city platforms, drives their
	// periodic checks from one coordinated clock, and multiplexes their
	// event streams into a single tagged journal. Per-city isolation and
	// journal-replay crash recovery are both bit-identical (proven by
	// tests; see DESIGN.md §10).
	Proxy = proxy.Proxy
	// CitySpec is the restart-safe blueprint of one proxied city.
	CitySpec = proxy.CitySpec
	// CityEvent is one merged-journal entry: an event tagged with its city.
	CityEvent = proxy.CityEvent
	// ProxyAdmin is the operator plane: pause/resume, crash injection,
	// health probes and fleet stats.
	ProxyAdmin = proxy.Admin
	// ProxyStats is the fleet snapshot: every city's PlatformStats plus
	// their aggregate fold.
	ProxyStats = proxy.AdminStats
	// ProxyCityStats is one city's tagged snapshot inside ProxyStats.
	ProxyCityStats = proxy.CityStats
	// CityHealth is one city's probe report.
	CityHealth = proxy.Health
	// CityState is a city's lifecycle state as the front tier sees it.
	CityState = proxy.CityState
)

// City lifecycle states.
var (
	// CityRunning / CityPaused / CityDown / CityClosed are the CityState
	// values probe reports carry.
	CityRunning = proxy.StateRunning
	CityPaused  = proxy.StatePaused
	CityDown    = proxy.StateDown
	CityClosed  = proxy.StateClosed
)

// The open-loop load harness (cmd/watterload is a thin CLI over it):
// synthetic arrival processes drive Submit at a configured rate on the
// virtual clock, yielding sustained throughput, admit→dispatch latency
// tails, decision slip and a modelled event consumer's backpressure onset —
// all bit-identical run to run (DESIGN.md §14).
type (
	// ArrivalProcess names an arrival process family (Poisson, Surge,
	// Pareto).
	ArrivalProcess = load.Process
	// ArrivalSpec pins one arrival schedule: a pure function of (process,
	// rate, seed, horizon).
	ArrivalSpec = load.ArrivalSpec
	// LoadConfig is one open-loop load run: city, fleet, arrival process
	// and the modelled event consumer. Its zero fields take the
	// defaults cmd/watterload's flags default to (LoadConfig.Defaults).
	LoadConfig = load.Config
	// LoadResult is one run's deterministic measurements (throughput,
	// latency and slip histograms, backpressure onset, stream/journal
	// fingerprints).
	LoadResult = load.Result
	// LatencyHist is a mergeable log-bucketed (HDR-style) histogram.
	LatencyHist = load.Hist
	// RateSearchResult reports the bisection outcome and every probe.
	RateSearchResult = load.SearchResult
)

// Arrival process families for ArrivalSpec.Process.
const (
	ArrivalPoisson = load.Poisson
	ArrivalSurge   = load.Surge
	ArrivalPareto  = load.Pareto
)

// Load-harness entry points.
var (
	// RunLoad executes one open-loop load run.
	RunLoad = load.Run
	// SearchMaxRate bisects a LoadConfig's arrival rate for the maximum
	// sustainable one (deterministic: fixed predicate, bracket and depth,
	// virtual-clock probes); SearchMaxRate(LoadConfig{}, nil) answers
	// cmd/watterload's default search.
	SearchMaxRate = load.SearchMaxRate
	// Retime rewrites a generated workload onto an arrival schedule —
	// the bridge between arrival processes and the sweep harness.
	Retime = load.Retime
)

// Lifecycle and admission sentinels (test with errors.Is).
var (
	// ErrPlatformClosed is returned by platform operations after Close.
	ErrPlatformClosed = platform.ErrClosed
	// ErrCityPaused is wrapped by the refusal of traffic to a proxied city
	// the operator paused (ProxyAdmin.Pause).
	ErrCityPaused = proxy.ErrPaused
	// ErrProxyClosed is returned by proxy operations after Proxy.Close.
	ErrProxyClosed = proxy.ErrClosed
	// ErrUnknownCity is returned when a city ID matches no owned platform.
	ErrUnknownCity = proxy.ErrUnknownCity
	// ErrCityDown is wrapped by the error of a crashed city whose journal
	// replay failed, so it could not be healed.
	ErrCityDown = proxy.ErrCityDown
	// ErrInvalidOrder is wrapped by every refusal of a malformed order — a
	// non-finite or inconsistent field, a pickup or dropoff outside the
	// network. The refused order moved no state; the platform stays usable.
	ErrInvalidOrder = order.ErrInvalid
	// ErrInvalidWorker is wrapped by every refusal of a malformed fleet — a
	// location outside the network, a duplicate or non-positive ID, no
	// capacity, a non-finite FreeAt. New built nothing.
	ErrInvalidWorker = order.ErrInvalidWorker
)

// NewProxy builds a multi-city front tier owning one platform per spec.
// Specs are validated (unique non-empty IDs, buildable platforms) and
// every city is constructed eagerly, so configuration errors surface here.
// A crashed city heals from its journal on the next operation that
// reaches it:
//
//	cdc, nyc := watter.CityCDC().Build(), watter.CityNYC().Build()
//	px, err := watter.NewProxy([]watter.CitySpec{
//	    {ID: "cdc", Net: cdc.Net, Workers: cdc.Workers(170, 4, 2),
//	     NewAlgorithm: watter.NewOnline},
//	    {ID: "nyc", Net: nyc.Net, Workers: nyc.Workers(300, 4, 2),
//	     NewAlgorithm: watter.NewTimeout},
//	})
//	if err != nil { ... }
//	_ = px.Submit("cdc", o)          // routed ingestion
//	health := px.Admin().Probe()     // HA probe; wedged cities heal here
//	metrics, err := px.Close()       // per-city final metrics
func NewProxy(specs []CitySpec) (*Proxy, error) {
	return proxy.New(specs)
}

// Platform construction options (see platform.New for semantics).
var (
	// WithTick sets the periodic-check interval Δt in seconds.
	WithTick = platform.WithTick
	// WithConfig replaces the platform parameters (validated).
	WithConfig = platform.WithConfig
	// WithAlgorithm installs the dispatch policy (default WATTER-online).
	WithAlgorithm = platform.WithAlgorithm
	// WithShards sets how many goroutines run an insert's pairwise
	// shareability DPs, with bit-identical results (1, the default, runs
	// them inline); the periodic check is sequential at any value.
	WithShards = platform.WithShards
	// WithMeasuredTime toggles wall-clock accounting of algorithm hooks.
	WithMeasuredTime = platform.WithMeasuredTime
	// WithObserver installs a synchronous event callback (dashboards,
	// journal recorders); it sees every event in order on the feeding
	// goroutine.
	WithObserver = platform.WithObserver
)

// New builds an event-driven platform over a network and fleet. Every
// parameter is validated; construction fails loudly instead of silently
// coercing. With no options it runs WATTER-online at the paper's Δt = 10 s.
func New(net Network, workers []*Worker, opts ...PlatformOption) (*Platform, error) {
	return platform.New(net, workers, opts...)
}

// City profiles mirroring the paper's three datasets.
var (
	CityNYC = dataset.NYC
	CityCDC = dataset.CDC
	CityXIA = dataset.XIA
)

// DefaultConfig returns the paper's default platform parameters — the one
// blessed source of defaults (constructors validate, they don't coerce).
func DefaultConfig() Config { return sim.DefaultConfig() }

// NewOnline returns the WATTER-online variant: every shared group is
// dispatched at the first periodic check after it forms.
func NewOnline() Algorithm {
	return core.New(strategy.Online{}, pool.DefaultOptions())
}

// NewTimeout returns the WATTER-timeout variant: groups are held as long
// as their feasibility horizon allows, checked at the platform's Δt.
func NewTimeout() Algorithm {
	return core.New(strategy.Timeout{}, pool.DefaultOptions())
}

// NewConstantThreshold returns the threshold strategy with a fixed θ for
// every order — the simplest instantiation of Algorithm 2, useful as a
// baseline and for exploring the threshold's effect. A group dispatches
// when its average extra time (order.ExtraTime: detour + response, the
// same formula the metrics book) is at most θ, or a member's wait limit
// has passed.
func NewConstantThreshold(theta float64) Algorithm {
	return core.New(&strategy.Threshold{Source: strategy.ConstantThreshold(theta)}, pool.DefaultOptions())
}

// NewGDP returns the online greedy-insertion baseline.
func NewGDP() Algorithm { return &baseline.GDP{} }

// NewGAS returns the batch-based additive-tree baseline (5 s batches).
func NewGAS() Algorithm { return &baseline.GAS{} }

// TrainExpect runs the full offline pipeline (behavior simulation → GMM fit
// → value-network training) and returns the ready-to-run WATTER-expect
// algorithm for the given experiment parameters.
func TrainExpect(p ExperimentParams) (Algorithm, error) {
	return exp.NewRunner().Build("WATTER-expect", p)
}

// DefaultExperimentParams returns the scaled-down per-city defaults used by
// the benchmark harness.
func DefaultExperimentParams(city CityProfile) ExperimentParams {
	return exp.DefaultParams(city)
}

// NewSweepRunner returns a parallel sweep engine over a fresh experiment
// runner. Run executes a matrix's job expansion; set Parallel to bound
// concurrency (0 means GOMAXPROCS; a negative value is refused):
//
//	sr := watter.NewSweepRunner()
//	res, err := sr.Run(watter.SweepMatrix{
//		Base:  watter.DefaultExperimentParams(watter.CityCDC()),
//		Algs:  []string{"WATTER-online", "GDP"},
//		Seeds: watter.ReplicateSeeds(1, 5),
//	}.Jobs())
func NewSweepRunner() *SweepRunner { return exp.NewSweepRunner(nil) }

// ReplicateSeeds returns the conventional seed grid base..base+n-1 for n
// replicate runs; for n < 1 the grid is empty.
func ReplicateSeeds(base int64, n int) []int64 { return exp.ReplicateSeeds(base, n) }
