// Package platform is the service-shaped front of the reproduction: a
// validated, event-driven ingestion API over the simulation machinery.
// Where sim.Run replays a pre-materialized workload (paper-replication
// mode), a Platform accepts orders one at a time, advances the periodic
// check on demand, and publishes typed events (order admitted / group
// dispatched / order rejected / tick completed) so callers can build live
// dashboards, loggers or admission controllers on top. Construction goes
// through functional options that validate and return errors instead of
// silently defaulting.
package platform

import (
	"errors"
	"fmt"
	"math"

	"watter/internal/core"
	"watter/internal/order"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// Lifecycle sentinels. ErrClosed is the typed "platform is closed" error:
// Submit/Tick/Replay return it (test with errors.Is) after Close or Abort.
// ErrPaused is returned while the platform is administratively paused —
// the operation is refused but the platform stays usable. ErrAborted is
// what Close reports (idempotently) for a platform that was killed by
// Abort or by a mid-replay failure instead of draining cleanly.
var (
	ErrClosed  = errors.New("platform: closed")
	ErrPaused  = errors.New("platform: paused")
	ErrAborted = errors.New("platform: aborted")
)

// Platform is a ridesharing service instance: one network, one fleet, one
// dispatch algorithm, and a streaming clock. It is not safe for
// concurrent use — one goroutine feeds it; event consumers run elsewhere.
type Platform struct {
	stream     *sim.Stream
	env        *sim.Env
	events     chan Event
	tap        *tap // registered on the Env once any delivery path exists
	subscribed bool // the channel is live (it must be closed at Close)
	fed        bool // the run has started; too late to subscribe
	buffer     int
	paused     bool
	closed     bool
	// Close is idempotent: the first call's result is memoized and every
	// later call returns exactly the same (*Metrics, error) pair.
	closeM   *sim.Metrics
	closeErr error
}

// config accumulates functional options before validation.
type config struct {
	cfg      sim.Config
	opts     sim.RunOptions
	alg      sim.Algorithm
	buffer   int
	shards   int
	observer func(Event)
}

// Option configures a Platform at construction; invalid values surface as
// errors from New.
type Option func(*config) error

// WithTick sets the periodic-check interval Δt in seconds (default 10,
// the paper's value). Must be positive.
func WithTick(dt float64) Option {
	return func(c *config) error {
		o := c.opts
		o.TickEvery = dt
		if err := o.Validate(); err != nil {
			return err
		}
		c.opts.TickEvery = dt
		return nil
	}
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

// WithShards sets how many goroutines run an order insert's pairwise
// shareability DPs: K > 1 plans the pairs on K goroutines and merges them
// in candidate order, so the platform's decisions — and therefore its
// metrics and its event stream — stay bit-identical to the default K = 1.
// The periodic check stays one sequential pass at any K. Prewarm is a
// capability of the WATTER pooling framework; algorithms without a pool
// (the GDP/GAS baselines) ignore K. Must be at least 1.
//
// K > 1 issues concurrent read-only queries (Cost/FillCostMatrix)
// against the platform's Network from the prewarm goroutines, so the
// network must tolerate concurrent queries. Every network this module
// ships — GridCity (stateless closed form) and Graph (immutable once
// built; every query draws its search state from a pool; hammered by the
// roadnet concurrency tests) — does; a custom Network with unguarded
// internal memoization must add its own synchronization before enabling
// shards.
func WithShards(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return fmt.Errorf("platform: shard count must be at least 1, got %d (1 is the sequential check)", k)
		}
		c.shards = k
		return nil
	}
}

// WithMeasuredTime toggles wall-clock accounting of algorithm hooks
// (Metrics.DecisionSeconds). Default on, matching DefaultRunOptions.
func WithMeasuredTime(on bool) Option {
	return func(c *config) error {
		c.opts.MeasureTime = on
		return nil
	}
}

// WithEventBuffer sizes the event channel (default 256). Event delivery
// blocks when the buffer is full — nothing is dropped — so feeders that
// outrun their consumer need either a larger buffer or a draining
// goroutine.
func WithEventBuffer(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("platform: event buffer must hold at least 1 event, got %d", n)
		}
		c.buffer = n
		return nil
	}
}

// WithObserver installs a synchronous event callback, invoked for every
// event on the feeding goroutine as it happens — the journal-recording
// hook the multi-city proxy builds on. Unlike the Events channel the
// observer never buffers and never blocks on a consumer, so it is the
// right tap for recorders that must not miss or reorder anything. The
// callback must not call back into the Platform. It composes with
// Events(): a subscribed channel receives every event the observer saw,
// observer first.
func WithObserver(fn func(Event)) Option {
	return func(c *config) error {
		if fn == nil {
			return errors.New("platform: nil observer")
		}
		c.observer = fn
		return nil
	}
}

// tickSetter is the retuning hook the pooling framework exposes.
type tickSetter interface{ SetTick(float64) }

// shardSetter is the prewarm-engine hook the pooling framework exposes.
type shardSetter interface{ SetShards(int) }

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
		cfg:    sim.DefaultConfig(),
		opts:   sim.DefaultRunOptions(),
		buffer: 256,
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
		ts.SetTick(c.opts.TickEvery)
	}
	if c.shards > 1 {
		if ss, ok := c.alg.(shardSetter); ok {
			ss.SetShards(c.shards)
		}
	}
	env := sim.NewEnv(net, workers, c.cfg) // cfg validated above: cannot panic
	stream, err := sim.NewStream(env, c.alg, c.opts)
	if err != nil {
		return nil, err
	}
	p := &Platform{stream: stream, env: env, buffer: c.buffer}
	if c.observer != nil {
		p.ensureTap().fn = c.observer
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

// ensureTap lazily registers the platform's tap on the Env. Both delivery
// paths (observer callback, event channel) hang off the one tap, so the Env
// holds a single platform observer however many paths exist, and a platform
// with neither holds none — its run builds no events at all. Registration
// happens at New or at Events, before the run starts, so the tap precedes
// every observer an algorithm registers at Init.
func (p *Platform) ensureTap() *tap {
	if p.tap == nil {
		p.tap = &tap{}
		p.env.Observe(p.tap.deliver)
	}
	return p.tap
}

// Events returns the platform's event channel, creating it on first call.
// Subscribe from the feeding goroutine, before the first Submit/Tick —
// Events is not safe to call concurrently with Submit/Close — then hand
// the channel to the consumer; it closes when the platform does. Without
// a subscriber the bus costs nothing.
//
// Subscribing late — after the run has started or the platform has
// closed — cannot observe the events already emitted, so instead of
// handing back a channel that would miss events (or never close), Events
// returns an already-closed channel: a ranging consumer exits
// immediately rather than hanging.
func (p *Platform) Events() <-chan Event {
	if p.events == nil {
		p.events = make(chan Event, p.buffer)
		if p.fed || p.closed {
			close(p.events)
		} else {
			p.subscribed = true
			p.ensureTap().ch = p.events
		}
	}
	return p.events
}

// Submit admits one order into the platform. Orders must be valid and
// arrive in non-decreasing release order; every periodic check due before
// the release fires first. The platform takes ownership of the order and
// enriches DirectCost when unset — callers replaying a shared slice
// should go through Replay, which clones.
//
// An order with a non-finite or inconsistent field, or a pickup or dropoff
// that is not a node of the network, is refused with an error wrapping
// order.ErrInvalid before any state moves — no tick fires, the ledger and the
// clock stay put, no event is emitted — and the platform stays usable.
func (p *Platform) Submit(o *order.Order) error {
	if p.closed {
		return ErrClosed
	}
	if p.paused {
		return ErrPaused
	}
	// The stream validates the order. Only a refusal leaves the run
	// unstarted; every other error can only follow a delivered event.
	err := p.stream.Submit(o)
	if err == nil {
		p.fed = true
	}
	return err
}

// Tick fires the next periodic check immediately and returns its
// simulation time — how a live feed makes the platform act while no
// orders arrive.
func (p *Platform) Tick() (float64, error) {
	if p.closed {
		return 0, ErrClosed
	}
	if p.paused {
		return 0, ErrPaused
	}
	p.fed = true
	return p.stream.Tick()
}

// Pause administratively freezes ingestion: Submit and Tick return
// ErrPaused until Resume. Pausing is metrics-neutral — the simulation runs
// on virtual time, so delaying ticks moves no boundary and changes no
// decision; only traffic the caller drops while paused is lost. Close
// still works on a paused platform (it drains and finalizes as usual).
func (p *Platform) Pause() error {
	if p.closed {
		return ErrClosed
	}
	p.paused = true
	return nil
}

// Resume lifts a Pause. Resuming an unpaused platform is a no-op.
func (p *Platform) Resume() error {
	if p.closed {
		return ErrClosed
	}
	p.paused = false
	return nil
}

// Close drains the platform — periodic checks keep firing until the
// largest deadline seen, remaining pooled orders are dispatched or
// rejected — then closes the event channel and returns the final metrics.
// Close is idempotent: every call after the first returns the first call's
// exact (*Metrics, error) pair, so restart and teardown paths can close
// defensively without tracking who closed first.
func (p *Platform) Close() (*sim.Metrics, error) {
	if p.closed {
		return p.closeM, p.closeErr
	}
	p.closed = true
	p.closeM, p.closeErr = p.stream.Close()
	if p.subscribed {
		close(p.events)
	}
	return p.closeM, p.closeErr
}

// Abort kills the platform without draining: no final ticks, no Finish,
// in-flight pool state is simply gone — the programmatic equivalent of the
// process crashing. The event channel still closes so ranging consumers
// terminate, Submit/Tick return ErrClosed afterwards, and Close reports
// ErrAborted (idempotently). The multi-city proxy's crash injection and
// restart teardown both route through here; recovery is the owner's
// problem (replay the recorded event journal into a fresh platform).
func (p *Platform) Abort() {
	if p.closed {
		return
	}
	p.abort()
}

// Replay is paper-replication mode on the streaming core: it delegates to
// Stream.Replay (the single validate-all + clone + stable-sort + submit
// implementation sim.Run also uses) and closes the platform. The caller's
// slice is never touched, and the metrics are bit-identical to the legacy
// batch sim.Run — proven by the replay equivalence property test. A nil or
// invalid order is refused, with an error wrapping order.ErrInvalid, before
// anything moves, and the platform stays usable. On a mid-replay error the
// platform is aborted — closed without draining, event channel closed — so
// event consumers always terminate.
func (p *Platform) Replay(orders []*order.Order) (*sim.Metrics, error) {
	if p.closed {
		return nil, ErrClosed
	}
	if p.paused {
		return nil, ErrPaused
	}
	if err := p.stream.Replay(orders); err != nil {
		if !errors.Is(err, order.ErrInvalid) {
			p.abort()
		}
		return nil, err
	}
	return p.Close()
}

// abort kills a platform whose run failed mid-flight: no drain, no
// Finish — but the event channel still closes so ranging consumers
// terminate instead of hanging on a bus that will never deliver again.
// Later Close calls report ErrAborted instead of pretending a clean drain
// produced metrics.
func (p *Platform) abort() {
	p.closed = true
	p.closeM, p.closeErr = nil, ErrAborted
	if p.subscribed {
		close(p.events)
	}
}

// Clock returns the simulation time of the last delivered event.
func (p *Platform) Clock() float64 { return p.stream.Clock() }

// Metrics returns a snapshot of the metrics accumulated so far.
func (p *Platform) Metrics() sim.Metrics { return p.env.Metrics }

// Env exposes the underlying simulation environment for advanced
// consumers (offline training registers its outcome observer on it with
// Env.Observe). The platform still owns the clock; treat the environment as
// read-mostly.
func (p *Platform) Env() *sim.Env { return p.env }

// Algorithm returns the installed dispatch policy.
func (p *Platform) Algorithm() sim.Algorithm { return p.stream.Alg() }
