// Package platform runs the simulation: a Platform is the one type that
// drives a sim.Algorithm. It owns the clock and the periodic check's cadence,
// admits orders one at a time (Submit) or as a pre-materialized workload
// (Replay, paper-replication mode), advances the periodic check on demand
// (Tick), drains at Close, and hands typed events (order admitted / group
// dispatched / order rejected / tick completed) to one synchronous observer
// (WithObserver) so callers can build live dashboards, loggers or admission
// controllers on top. Construction goes through functional options that
// validate and return errors instead of silently defaulting.
//
// Scheduling contract (pinned by the scheduling tests and the replay
// equivalence property test):
//
//   - ticks fire at Δt, 2Δt, ... ; every tick with time <= an order's
//     release fires before that order is delivered (an order released
//     exactly on a tick boundary arrives after that tick),
//   - orders must be submitted in non-decreasing release order, never in
//     the past of the advanced clock,
//   - Close drains: ticks keep firing up to the horizon — the largest
//     deadline seen, or the clock if that is later — then Finish runs at
//     the horizon.
package platform

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"watter/internal/core"
	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// Lifecycle sentinels. ErrClosed is the typed "platform is closed" error:
// Submit/Tick/Replay return it (test with errors.Is) after Close or Abort.
// ErrAborted is what Close reports (idempotently) for a platform that was
// killed by Abort or by a mid-replay failure instead of draining cleanly.
var (
	ErrClosed  = errors.New("platform: closed")
	ErrAborted = errors.New("platform: aborted")
)

// Platform is a ridesharing service instance: one network, one fleet, one
// dispatch algorithm, and the clock that drives them (Env.Clock, the time of
// the last delivered event). It is not safe for concurrent use: one
// goroutine feeds it, and the observer runs on that goroutine.
type Platform struct {
	env     *sim.Env
	alg     sim.Algorithm
	tick    float64 // Δt
	measure bool    // time the algorithm's hooks into Metrics.DecisionSeconds

	nextTick float64
	horizon  float64 // the largest deadline admitted: Close drains to it
	// started: Init has run and the clock is meaningful.
	started bool
	closed  bool
	// Close is idempotent: the first call's result is memoized and every
	// later call returns exactly the same (*Metrics, error) pair.
	closeM   *sim.Metrics
	closeErr error
}

// config accumulates functional options before validation.
type config struct {
	cfg      sim.Config
	tick     float64
	measure  bool
	alg      sim.Algorithm
	observer func(Event)
}

// Option configures a Platform at construction; invalid values surface as
// errors from New.
type Option func(*config) error

// WithTick sets the periodic-check interval Δt in seconds (default 10,
// the paper's value). Must be positive and finite (ValidateTick).
func WithTick(dt float64) Option {
	return func(c *config) error {
		if err := ValidateTick(dt); err != nil {
			return err
		}
		c.tick = dt
		return nil
	}
}

// ValidateTick is the one check of a periodic-check interval Δt: a
// positive, finite number of seconds. There is no silent defaulting; the
// paper's Δt is 10 s.
func ValidateTick(dt float64) error {
	if !(dt > 0) || math.IsInf(dt, 1) {
		return fmt.Errorf("platform: tick must be a positive, finite number of seconds, got %v (the paper's Δt is 10 s)", dt)
	}
	return nil
}

// WithConfig replaces the platform parameters (grid size, capacity). Start
// from sim.DefaultConfig and deviate explicitly. The objective's weights are
// constants: extra time is order.ExtraTime, the rejection factor is sim's.
func WithConfig(cfg sim.Config) Option {
	return func(c *config) error {
		if err := cfg.Validate(); err != nil {
			return err
		}
		c.cfg = cfg
		return nil
	}
}

// WithAlgorithm installs the dispatch policy (default: the WATTER-online
// pooling framework). If the algorithm exposes SetTick it is aligned with
// the platform's Δt at New time, so the check cadence is configured in
// exactly one place.
func WithAlgorithm(alg sim.Algorithm) Option {
	return func(c *config) error {
		if alg == nil {
			return errors.New("platform: nil algorithm")
		}
		c.alg = alg
		return nil
	}
}

// WithShards refuses k < 1 and otherwise does nothing: one city's dispatch
// runs on one goroutine at every k.
//
// Deprecated: kept only for benchmark/ (CHANGES.md).
func WithShards(k int) Option {
	return func(*config) error {
		if k < 1 {
			return fmt.Errorf("platform: shard count must be at least 1, got %d", k)
		}
		return nil
	}
}

// WithMeasuredTime toggles wall-clock accounting of algorithm hooks
// (Metrics.DecisionSeconds). Default on.
func WithMeasuredTime(on bool) Option {
	return func(c *config) error {
		c.measure = on
		return nil
	}
}

// WithObserver installs a synchronous event callback, invoked for every
// event on the feeding goroutine as it happens — the journal-recording
// hook the multi-city proxy builds on. The platform owns no queue: a
// consumer that wants another goroutine keeps its own channel and sizes
// its own buffer. The callback must not call back into the Platform. The
// last WithObserver wins; it runs before any observer the algorithm
// registers at Init.
func WithObserver(fn func(Event)) Option {
	return func(c *config) error {
		if fn == nil {
			return errors.New("platform: nil observer")
		}
		c.observer = fn
		return nil
	}
}

// tickSetter is how an algorithm whose rules depend on Δt learns it: the
// pooling framework's last call (and mdp.Collector, which forwards it).
type tickSetter interface{ SetTick(float64) }

// New builds a platform over a network and fleet. Every parameter is
// validated — construction fails loudly instead of silently coercing:
//
//	p, err := platform.New(city.Net, workers,
//	    platform.WithTick(10),
//	    platform.WithAlgorithm(core.New(strategy.Timeout{}, pool.DefaultOptions())),
//	)
//
// Workers are used in place; their FreeAt/Loc fields mutate as the
// platform dispatches.
func New(net roadnet.Network, workers []*order.Worker, options ...Option) (*Platform, error) {
	if net == nil {
		return nil, errors.New("platform: nil network")
	}
	c := config{
		cfg:     sim.DefaultConfig(),
		tick:    10,
		measure: true,
	}
	for _, opt := range options {
		if opt == nil {
			return nil, errors.New("platform: nil option")
		}
		if err := opt(&c); err != nil {
			return nil, err
		}
	}
	if err := validateFleet(net, workers); err != nil {
		return nil, err
	}
	if c.alg == nil {
		c.alg = core.New(strategy.Online{}, pool.DefaultOptions())
	}
	if ts, ok := c.alg.(tickSetter); ok {
		ts.SetTick(c.tick)
	}
	p := &Platform{
		env:      sim.NewEnv(net, workers, c.cfg), // cfg validated above: cannot panic
		alg:      c.alg,
		tick:     c.tick,
		measure:  c.measure,
		nextTick: c.tick,
	}
	// Registered before the run starts, so it precedes every observer an
	// algorithm adds at Init; with none, the run builds no events at all.
	if c.observer != nil {
		p.env.Observe(c.observer)
	}
	return p, nil
}

// validateFleet refuses a fleet the platform could not dispatch faithfully,
// before any state is built; every refusal wraps order.ErrInvalidWorker. The
// fleet is outside input: a location that is no node of the network would
// index past the worker index's cells (or be priced silently on a
// closed-form city), two workers sharing an ID would be one worker to half of
// the index and two to the other, and a FreeAt that is not finite makes
// IdleAt hold never (NaN, +Inf) or from before time began (-Inf).
func validateFleet(net roadnet.Network, workers []*order.Worker) error {
	ids := make(map[int]struct{}, len(workers))
	for i, w := range workers {
		var why string
		switch {
		case w == nil:
			return fmt.Errorf("platform: worker at index %d is nil: %w", i, order.ErrInvalidWorker)
		case w.ID < 1:
			// IDs start at 1: GroupDispatched reserves WorkerID 0 for "no
			// single worker attributable", so a zero-ID worker's dispatches
			// would be unreportable.
			why = "ID < 1"
		case w.Capacity < 1:
			why = fmt.Sprintf("capacity %d < 1", w.Capacity)
		case math.IsNaN(w.FreeAt) || math.IsInf(w.FreeAt, 0):
			why = fmt.Sprintf("free-at time %v is not finite", w.FreeAt)
		case roadnet.ValidateNode(net, w.Loc) != nil:
			why = fmt.Sprintf("location %d is not a node of the network [0,%d)", w.Loc, net.NumNodes())
		default:
			if _, dup := ids[w.ID]; dup {
				why = "ID appears twice in the fleet"
			}
			ids[w.ID] = struct{}{}
		}
		if why != "" {
			return fmt.Errorf("platform: worker %d (index %d): %s: %w", w.ID, i, why, order.ErrInvalidWorker)
		}
	}
	return nil
}

// admissible is the one admission check, Submit's and Replay's alike: the
// order is not nil, its fields pass order.Validate, and both its nodes exist
// in the platform's network. A refusal wraps order.ErrInvalid and touches no
// state. The range check is what stands between a hostile node ID and the
// routing oracle, which indexes its arrays by it (a Graph panics; a
// closed-form GridCity would price garbage without complaint).
func (p *Platform) admissible(o *order.Order) error {
	if o == nil {
		return fmt.Errorf("platform: nil order: %w", order.ErrInvalid)
	}
	if err := o.Validate(); err != nil {
		return err
	}
	for _, n := range [...]geo.NodeID{o.Pickup, o.Dropoff} {
		if err := roadnet.ValidateNode(p.env.Net, n); err != nil {
			return fmt.Errorf("order %d: %v: %w", o.ID, err, order.ErrInvalid)
		}
	}
	return nil
}

// Submit admits one order into the platform. Orders must be valid and
// arrive in non-decreasing release order; every periodic check due at or
// before the release fires first, then the algorithm's OnOrder hook runs at
// the release time. The platform takes ownership of the order and enriches
// DirectCost when unset — callers replaying a shared slice should go
// through Replay, which clones.
//
// A nil order, an order with a non-finite or inconsistent field, or a pickup
// or dropoff that is not a node of the network, is refused with an error
// wrapping order.ErrInvalid before any state moves — no tick fires, the
// ledger and the clock stay put, no event is emitted — and the platform
// stays usable.
func (p *Platform) Submit(o *order.Order) error {
	if p.closed {
		return ErrClosed
	}
	if err := p.admissible(o); err != nil {
		return err
	}
	return p.deliver(o)
}

// deliver runs an admissible order: the checks due first, then OnOrder.
func (p *Platform) deliver(o *order.Order) error {
	// Monotonicity is checked once the clock is meaningful: before the
	// first event, negative releases are admissible (the clock simply
	// starts there).
	if p.started && o.Release < p.env.Clock {
		return fmt.Errorf("platform: order %d released at %.1f, but the clock is already at %.1f (orders must arrive in release order)",
			o.ID, o.Release, p.env.Clock)
	}
	p.start()
	for p.nextTick <= o.Release {
		p.fireTick()
	}
	if o.Deadline > p.horizon {
		p.horizon = o.Deadline
	}
	p.env.Admit(o)
	p.timed(func() { p.alg.OnOrder(o, o.Release) })
	return nil
}

// start runs the algorithm's Init before the first event.
func (p *Platform) start() {
	if p.started {
		return
	}
	p.started = true
	p.timed(func() { p.alg.Init(p.env) })
}

// timed wraps a hook invocation with optional wall-clock accounting.
func (p *Platform) timed(fn func()) {
	if !p.measure {
		fn()
		return
	}
	start := time.Now() //det:wallclock opt-in measured-time plumbing behind WithMeasuredTime
	fn()
	//det:wallclock DecisionSeconds is the one documented wall-clock Metrics field, excluded from every bit-identity comparison
	p.env.Metrics.DecisionSeconds += time.Since(start).Seconds()
}

// fireTick advances the clock to the next tick boundary and runs the
// periodic check there.
func (p *Platform) fireTick() {
	t := p.nextTick
	p.env.Clock = t
	p.timed(func() { p.alg.OnTick(t) })
	p.nextTick += p.tick
	p.env.EndTick(t)
}

// Tick fires the next periodic check immediately, regardless of pending
// orders, and returns its simulation time — how a live feed makes the
// platform act while no orders arrive.
func (p *Platform) Tick() (float64, error) {
	if p.closed {
		return 0, ErrClosed
	}
	p.start()
	t := p.nextTick
	p.fireTick()
	return t, nil
}

// Close drains the platform — periodic checks keep firing until the
// largest deadline seen (or the clock, if that is later), then the
// algorithm's Finish hook dispatches or rejects every still-pooled order
// there — and returns the final metrics.
// Close is idempotent: every call after the first returns the first call's
// exact (*Metrics, error) pair, so restart and teardown paths can close
// defensively without tracking who closed first.
func (p *Platform) Close() (*sim.Metrics, error) {
	if p.closed {
		return p.closeM, p.closeErr
	}
	p.start()
	horizon := math.Max(p.horizon, p.env.Clock)
	for p.nextTick <= horizon {
		p.fireTick()
	}
	p.env.Clock = horizon
	p.timed(func() { p.alg.Finish(horizon) })
	p.shut(&p.env.Metrics, nil)
	return p.closeM, p.closeErr
}

// Abort kills the platform without draining: no final ticks, no Finish,
// in-flight pool state is simply gone — the programmatic equivalent of the
// process crashing. Submit/Tick return ErrClosed afterwards, and Close
// reports ErrAborted (idempotently). The multi-city proxy's crash injection and
// restart teardown both route through here; recovery is the owner's
// problem (replay the recorded event journal into a fresh platform).
func (p *Platform) Abort() {
	if !p.closed {
		p.shut(nil, ErrAborted)
	}
}

// shut closes the platform with the result every later Close returns.
func (p *Platform) shut(m *sim.Metrics, err error) {
	p.closed = true
	p.closeM, p.closeErr = m, err
}

// Replay is paper-replication mode: it feeds a pre-materialized workload
// through the same clock live feeds use and closes the platform. Orders are
// cloned — the caller's slice, and the orders it points to, are never
// touched — and stable-sorted by release before delivery; the metrics are
// bit-identical to the frozen pre-redesign batch runner, which the replay
// equivalence property test proves.
//
// Admission is all or nothing: every order meets Submit's admission check
// before the first is delivered, and a nil or invalid one is refused, with
// an error wrapping order.ErrInvalid, before anything moves; the platform
// stays usable. A later error (a release behind the clock a live Tick
// already advanced) aborts the platform: closed without draining.
func (p *Platform) Replay(orders []*order.Order) (*sim.Metrics, error) {
	if p.closed {
		return nil, ErrClosed
	}
	sorted := make([]*order.Order, len(orders))
	for i, o := range orders {
		if err := p.admissible(o); err != nil {
			return nil, err
		}
		c := *o
		sorted[i] = &c
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Release < sorted[j].Release })
	for _, o := range sorted {
		if err := p.deliver(o); err != nil {
			p.Abort()
			return nil, err
		}
	}
	return p.Close()
}

// Clock returns the simulation time of the last delivered event.
func (p *Platform) Clock() float64 { return p.env.Clock }

// Metrics returns a snapshot of the metrics accumulated so far.
func (p *Platform) Metrics() sim.Metrics { return p.env.Metrics }

// Env exposes the underlying simulation environment for advanced
// consumers (offline training registers its outcome observer on it with
// Env.Observe). The platform owns the clock; treat the environment as
// read-mostly.
func (p *Platform) Env() *sim.Env { return p.env }

// Algorithm returns the installed dispatch policy.
func (p *Platform) Algorithm() sim.Algorithm { return p.alg }
