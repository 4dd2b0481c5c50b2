package sim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// ErrStreamClosed is returned by Stream operations after Close.
var ErrStreamClosed = errors.New("sim: stream closed")

// Stream is the streaming simulation core: it owns the clock and the tick
// cadence, admits orders one at a time, and drives the algorithm's hooks
// exactly as the batch replay did — the batch Run is a thin adapter over
// it, and produces bit-identical metrics.
//
// Scheduling contract (pinned by TestStreamEdgeCases and the replay
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
type Stream struct {
	env  *Env
	alg  Algorithm
	opts RunOptions

	clock       float64 // last delivered event time
	delivered   bool    // whether any event has been delivered (clock is meaningful)
	nextTick    float64
	maxDeadline float64
	started     bool
	closed      bool
}

// NewStream validates the options and returns a ready stream. The
// environment's metrics are reset when the first event is delivered.
func NewStream(env *Env, alg Algorithm, opts RunOptions) (*Stream, error) {
	if env == nil {
		return nil, errors.New("sim: nil environment")
	}
	if alg == nil {
		return nil, errors.New("sim: nil algorithm")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Stream{env: env, alg: alg, opts: opts}, nil
}

// Env exposes the underlying environment (observer registration, metrics).
func (s *Stream) Env() *Env { return s.env }

// Alg returns the algorithm the stream drives.
func (s *Stream) Alg() Algorithm { return s.alg }

// Clock returns the simulation time of the last delivered event.
func (s *Stream) Clock() float64 { return s.clock }

// start lazily initializes the run on the first event.
func (s *Stream) start() {
	if s.started {
		return
	}
	s.started = true
	s.env.Metrics = Metrics{}
	s.nextTick = s.opts.TickEvery
	s.timed(func() { s.alg.Init(s.env) })
}

// timed wraps a hook invocation with optional wall-clock accounting.
func (s *Stream) timed(fn func()) {
	if !s.opts.MeasureTime {
		fn()
		return
	}
	start := time.Now() //det:wallclock opt-in measured-time plumbing behind MeasureTime (platform.WithMeasuredTime)
	fn()
	//det:wallclock DecisionSeconds is the one documented wall-clock Metrics field, excluded from every bit-identity comparison
	s.env.Metrics.DecisionSeconds += time.Since(start).Seconds()
}

// admissible reports whether the order may enter this stream at all: its
// fields pass order.Validate and both its nodes exist in the stream's
// network. A refusal wraps order.ErrInvalid and touches no state. The range
// check is what stands between a hostile node ID and the routing oracle,
// which indexes its arrays by it (a Graph panics; a closed-form GridCity
// would price garbage without complaint).
func (s *Stream) admissible(o *order.Order) error {
	if err := o.Validate(); err != nil {
		return err
	}
	for _, n := range [...]geo.NodeID{o.Pickup, o.Dropoff} {
		if err := roadnet.ValidateNode(s.env.Net, n); err != nil {
			return fmt.Errorf("order %d: %v: %w", o.ID, err, order.ErrInvalid)
		}
	}
	return nil
}

// Submit admits one order: all pending ticks up to its release fire
// first, then the algorithm's OnOrder hook runs at the release time. The
// stream owns admission-time enrichment — DirectCost is filled here when
// unset, on the submitted order (ownership passes to the platform; batch
// callers who need their slices untouched go through Run, which clones).
// An order that is not admissible is refused before anything moves: no
// tick fires, the clock and the metrics stay where they were.
func (s *Stream) Submit(o *order.Order) error {
	if s.closed {
		return ErrStreamClosed
	}
	if o == nil {
		return errors.New("sim: nil order")
	}
	if err := s.admissible(o); err != nil {
		return err
	}
	return s.submit(o)
}

// submit is Submit for an order already found admissible.
func (s *Stream) submit(o *order.Order) error {
	s.start()
	// Monotonicity is checked against delivered events only: before the
	// first one the clock is not meaningful, so negative releases are
	// admissible exactly as they were in the pre-redesign batch runner.
	if s.delivered && o.Release < s.clock {
		return fmt.Errorf("sim: order %d released at %.1f, but the clock is already at %.1f (orders must arrive in release order)",
			o.ID, o.Release, s.clock)
	}
	for s.nextTick <= o.Release {
		s.fireTick()
	}
	s.env.Clock = o.Release
	s.clock = o.Release
	s.delivered = true
	if o.DirectCost == 0 {
		o.DirectCost = s.env.Net.Cost(o.Pickup, o.Dropoff)
	}
	s.env.Metrics.Total++
	if o.Deadline > s.maxDeadline {
		s.maxDeadline = o.Deadline
	}
	if s.env.observed() {
		s.env.emit(OrderAdmitted{Time: o.Release, Order: o})
	}
	s.timed(func() { s.alg.OnOrder(o, o.Release) })
	return nil
}

// Replay feeds a pre-materialized batch workload into the stream: orders
// are cloned (the caller's slice — and the orders it points to — are
// never mutated) and stable-sorted by release before submission. This is
// the one implementation of the batch-over-streaming-core path; Run and
// Platform.Replay both delegate here, so the bit-identical replay
// contract lives in exactly one place. The stream stays open: callers
// drain with Close.
//
// Admission is all or nothing: every order is checked before the first is
// submitted, and a nil or inadmissible one is refused — with an error
// wrapping order.ErrInvalid — before anything moves. Each order is checked
// once; the submissions that follow do not check it again. A later error
// (a release behind the clock a live Tick already advanced) stops the
// replay partway.
func (s *Stream) Replay(orders []*order.Order) error {
	if s.closed {
		return ErrStreamClosed
	}
	sorted := make([]*order.Order, len(orders))
	for i, o := range orders {
		if o == nil {
			return fmt.Errorf("sim: order %d is nil: %w", i, order.ErrInvalid)
		}
		if err := s.admissible(o); err != nil {
			return err
		}
		c := *o
		sorted[i] = &c
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Release < sorted[j].Release })
	for _, o := range sorted {
		if err := s.submit(o); err != nil {
			return err
		}
	}
	return nil
}

// Tick fires the next periodic check immediately, regardless of pending
// orders, and returns its simulation time. Live feeds use it to let the
// platform make progress while no orders arrive.
func (s *Stream) Tick() (float64, error) {
	if s.closed {
		return 0, ErrStreamClosed
	}
	s.start()
	t := s.nextTick
	s.fireTick()
	return t, nil
}

// fireTick advances the clock to the next tick boundary and runs the
// periodic check there.
func (s *Stream) fireTick() {
	t := s.nextTick
	s.env.Clock = t
	s.clock = t
	s.delivered = true
	s.timed(func() { s.alg.OnTick(t) })
	s.nextTick += s.opts.TickEvery
	if s.env.observed() {
		s.env.emit(TickCompleted{Time: t, Metrics: s.env.Metrics})
	}
}

// Close drains the stream — remaining ticks fire through the horizon,
// then the algorithm's Finish hook resolves every still-pooled order —
// and returns the final metrics. The stream accepts no further events.
func (s *Stream) Close() (*Metrics, error) {
	if s.closed {
		return nil, ErrStreamClosed
	}
	s.start()
	s.closed = true
	horizon := math.Max(s.maxDeadline, s.clock)
	for s.nextTick <= horizon {
		s.fireTick()
	}
	s.env.Clock = horizon
	s.clock = horizon
	s.timed(func() { s.alg.Finish(horizon) })
	return &s.env.Metrics, nil
}

// Validate rejects option values the scheduler cannot honor. There is no
// silent defaulting: DefaultRunOptions is the one blessed source of
// defaults, and anything else must be explicit.
func (o RunOptions) Validate() error {
	if o.TickEvery <= 0 || math.IsInf(o.TickEvery, 0) || math.IsNaN(o.TickEvery) {
		return fmt.Errorf("sim: TickEvery must be a positive duration, got %v (use DefaultRunOptions for the paper's Δt = 10 s)", o.TickEvery)
	}
	return nil
}
