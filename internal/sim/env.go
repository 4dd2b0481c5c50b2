// Package sim is the ridesharing platform simulator's state: the worker
// fleet, the metric accounting and the Algorithm interface every dispatch
// policy (the WATTER variants and the GDP/GAS baselines) implements; a
// platform.Platform owns the clock and drives the algorithm over an online
// order stream. The four reported measurements match the paper's Section VII-A:
// Extra Time, Unified Cost, Service Rate and Running Time. Every outcome is
// recorded once, in Env, and handed as a typed Event to the Env's observers.
package sim

import (
	"fmt"
	"math"
	"slices"

	"watter/internal/gridindex"
	"watter/internal/order"
	"watter/internal/roadnet"
	"watter/internal/route"
)

// Metrics accumulates the paper's four measurements plus the raw terms they
// are derived from.
type Metrics struct {
	Total    int // |O|
	Served   int // |O+|
	Rejected int // |O-|

	// ServedExtra is Σ t_e over served orders; PenaltySum is Σ p(i) over
	// rejected orders. ExtraTime (the METRS objective Φ, Eq. 2) is their sum.
	ServedExtra float64
	PenaltySum  float64

	// ResponseSum and DetourSum decompose ServedExtra (order.ExtraTime
	// weighs both by 1).
	ResponseSum float64
	DetourSum   float64

	// WorkerTravel is total driving seconds across the fleet.
	// RejectUnified is the Unified Cost penalty term: rejectionFactor x
	// cost(lp,ld) per rejected order (Section VII-A, following [9]).
	// UnifiedCost is their sum.
	WorkerTravel  float64
	RejectUnified float64

	// DecisionSeconds is the cumulative wall-clock time the algorithm spent
	// inside its hooks; RunningTime() reports the per-order average.
	DecisionSeconds float64

	// GroupSizeHist[k] counts dispatched groups with k orders (k capped at 8).
	GroupSizeHist [9]int
}

// ExtraTime returns the METRS objective Φ(W, O) (Eq. 2).
func (m *Metrics) ExtraTime() float64 { return m.ServedExtra + m.PenaltySum }

// UnifiedCost returns worker travel plus rejection penalties (per [9]).
func (m *Metrics) UnifiedCost() float64 { return m.WorkerTravel + m.RejectUnified }

// ServiceRate returns |O+| / |O| in [0,1].
func (m *Metrics) ServiceRate() float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Served) / float64(m.Total)
}

// RunningTime returns the average algorithm running time per order in
// seconds (the paper's Running Time metric).
func (m *Metrics) RunningTime() float64 {
	if m.Total == 0 {
		return 0
	}
	return m.DecisionSeconds / float64(m.Total)
}

// AvgGroupSize returns the mean dispatched group size.
func (m *Metrics) AvgGroupSize() float64 {
	groups, orders := 0, 0
	for k, c := range m.GroupSizeHist {
		groups += c
		orders += k * c
	}
	if groups == 0 {
		return 0
	}
	return float64(orders) / float64(groups)
}

// Config fixes the experiment-level parameters shared by all algorithms.
type Config struct {
	// GridN is the side of the spatial index (paper default 10).
	GridN int
	// Capacity is the default vehicle capacity used for group-size limits
	// when planning before a concrete worker is chosen.
	Capacity int
}

// DefaultConfig returns the paper's default parameters.
func DefaultConfig() Config {
	return Config{GridN: 10, Capacity: 4}
}

// Env is the platform state visible to dispatch algorithms.
type Env struct {
	Net     roadnet.Network
	Planner *route.Planner
	Index   *gridindex.Index
	WIndex  *gridindex.WorkerIndex
	Workers []*order.Worker
	Cfg     Config

	Clock   float64
	Metrics Metrics

	// observers receive every recorded outcome, in registration order (see
	// Observe); with none registered no event is ever built.
	observers []func(Event)
	// recs holds the service records of the dispatch being booked; book folds
	// them into Metrics and copies them into the event only when observed.
	recs []ServiceRecord
}

// Validate rejects parameter values the simulator cannot honor. There is
// no silent defaulting: DefaultConfig is the one blessed source of
// defaults, and deviations must be explicit.
func (c Config) Validate() error {
	switch {
	case c.GridN < 1:
		return fmt.Errorf("sim: GridN must be at least 1, got %d", c.GridN)
	case c.Capacity < 1:
		return fmt.Errorf("sim: Capacity must be at least 1, got %d", c.Capacity)
	}
	return nil
}

// NewEnv builds an environment over the network and worker fleet. Workers
// are used in place (their FreeAt/Loc fields mutate during a run). The
// config must be valid (see Config.Validate); NewEnv panics on invalid
// parameters — the platform constructor is the error-returning surface.
func NewEnv(net roadnet.Network, workers []*order.Worker, cfg Config) *Env {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ix := gridindex.New(net, cfg.GridN)
	return &Env{
		Net:     net,
		Planner: route.NewPlanner(net),
		Index:   ix,
		WIndex:  gridindex.NewWorkerIndex(ix, net, workers),
		Workers: workers,
		Cfg:     cfg,
	}
}

// Observe appends fn to the Env's one observer list. Every event the Env
// records (OrderAdmitted, GroupDispatched, OrderRejected, TickCompleted) is
// handed to each observer in registration order — the platform's tap
// registers before the run starts, an algorithm's own observer at Init —
// synchronously on the simulation goroutine, inside the call that produced
// it, so fn must not call back into the Env or the platform. Observers stay
// for the Env's lifetime.
func (e *Env) Observe(fn func(Event)) {
	e.observers = append(e.observers, fn)
}

// observed reports whether anything listens; callers build no event without.
func (e *Env) observed() bool { return len(e.observers) > 0 }

// emit hands one event to every observer in registration order.
func (e *Env) emit(ev Event) {
	for _, fn := range e.observers {
		fn(ev)
	}
}

// Admit records an order's arrival at its release: the clock moves there,
// DirectCost is filled when unset (on o itself: the platform owns it), the
// order is counted, and the observers get an OrderAdmitted.
func (e *Env) Admit(o *order.Order) {
	e.Clock = o.Release
	if o.DirectCost == 0 {
		o.DirectCost = e.Net.Cost(o.Pickup, o.Dropoff)
	}
	e.Metrics.Total++
	if e.observed() {
		e.emit(OrderAdmitted{Time: o.Release, Order: o})
	}
}

// EndTick records a completed periodic check at now: the observers get a
// TickCompleted with a snapshot of the metrics.
func (e *Env) EndTick(now float64) {
	if e.observed() {
		e.emit(TickCompleted{Time: now, Metrics: e.Metrics})
	}
}

// DispatchGroup assigns the group to the closest idle worker with enough
// capacity, updates the worker timeline and accounts all per-order metrics.
// Returns false (and records nothing) when no worker is available.
//
// Timing model: the paper measures response time until the platform
// notifies the rider (t_n = dispatch time) and T(L(i)) from the route's
// first stop. The worker's approach travel to the first stop therefore
// counts toward worker travel (Unified Cost) and the worker's busy window,
// but not toward rider extra time.
//
// The plan's arrival offsets are measured from the route's first stop, so
// the chosen worker's approach leg shifts every dropoff by the same amount.
// Deadline feasibility is therefore re-checked here with the approach
// included: only workers whose travel time to the first stop fits within
// the group's deadline slack are candidates, and the ring search falls
// through to the next-nearest worker when a closer one does not fit.
func (e *Env) DispatchGroup(g *order.Group, now float64) bool {
	if g == nil || g.Plan == nil || len(g.Orders) == 0 {
		return false
	}
	slack := approachSlack(g, now)
	if slack < 0 {
		return false // the plan itself is already past a deadline
	}
	w, approach := e.WIndex.ClosestIdleWithin(g.Plan.Stops[0].Node, now, g.Riders(), slack)
	if w == nil {
		return false
	}
	e.commitGroup(w, approach, g, now)
	return true
}

// DispatchGroupTo is DispatchGroup with a pre-selected worker and its
// already-verified approach travel time (from the caller's own
// ClosestIdleWithin probe against the group's deadline slack); it commits
// without repeating the ring search. The worker must still be idle.
func (e *Env) DispatchGroupTo(w *order.Worker, approach float64, g *order.Group, now float64) bool {
	if g == nil || g.Plan == nil || len(g.Orders) == 0 || w == nil || !w.IdleAt(now) {
		return false
	}
	if math.IsInf(approach, 1) {
		return false
	}
	e.commitGroup(w, approach, g, now)
	return true
}

// commitGroup books the group on the worker and accounts all metrics. It is
// the one place a served order's response and detour are derived from a
// plan: an order without a dropoff in the plan is not served, so it gets no
// record and is not counted.
func (e *Env) commitGroup(w *order.Worker, approach float64, g *order.Group, now float64) {
	w.TravelCost += approach + g.Plan.Cost
	w.FreeAt = now + approach + g.Plan.Cost
	w.Loc = g.Plan.Stops[len(g.Plan.Stops)-1].Node
	w.Served++
	e.WIndex.Update(w)

	e.Metrics.WorkerTravel += approach + g.Plan.Cost
	e.recs = e.recs[:0]
	for _, o := range g.Orders {
		st, ok := g.Plan.ServiceTime(o.ID)
		if !ok {
			continue
		}
		e.recs = append(e.recs, ServiceRecord{OrderID: o.ID, Response: now - o.Release, Detour: st - o.DirectCost})
	}
	e.book(w, approach, g.Plan.Cost, len(g.Orders), e.recs, now)
}

// book is the one accounting routine every served order goes through: it
// folds each record into Metrics, counts a group of size orders, and — only
// when something is listening — hands a copy of the same records to the
// observers as one GroupDispatched. w is nil when no single worker is
// attributable.
func (e *Env) book(w *order.Worker, approach, routeCost float64, size int, recs []ServiceRecord, now float64) {
	for _, r := range recs {
		e.Metrics.Served++
		e.Metrics.ResponseSum += r.Response
		e.Metrics.DetourSum += r.Detour
		e.Metrics.ServedExtra += order.ExtraTime(r.Detour, r.Response)
	}
	e.Metrics.GroupSizeHist[min(size, len(e.Metrics.GroupSizeHist)-1)]++
	if !e.observed() {
		return
	}
	ev := GroupDispatched{Time: now, Approach: approach, RouteCost: routeCost, Orders: slices.Clone(recs)}
	if w != nil {
		ev.WorkerID = w.ID
	}
	e.emit(ev)
}

// approachSlack returns the largest approach travel time a worker may add
// in front of the group's route without any member missing its deadline:
// min over dropoffs of (deadline - now - arrival offset). Negative when the
// plan is stale (some deadline is unreachable even with a zero approach).
func approachSlack(g *order.Group, now float64) float64 {
	slack := math.Inf(1)
	for i, s := range g.Plan.Stops {
		if s.Kind != order.DropoffStop {
			continue
		}
		for _, o := range g.Orders {
			if o.ID != s.OrderID {
				continue
			}
			if sl := o.Deadline - now - g.Plan.Arrive[i]; sl < slack {
				slack = sl
			}
			break
		}
	}
	return slack
}

// ServeWithWorker charges travel to a specific worker without group
// accounting; the GDP baseline (whose workers run evolving multi-order
// schedules) uses it together with ServeOrder.
func (e *Env) ServeWithWorker(w *order.Worker, addedTravel float64) {
	w.TravelCost += addedTravel
	e.Metrics.WorkerTravel += addedTravel
}

// ServeOrder records a single served order with explicit response and
// detour times; w is the worker whose evolving schedule delivered it, or
// nil when no single worker is attributable (used by schedule-based
// baselines).
func (e *Env) ServeOrder(w *order.Worker, o *order.Order, response, detour float64) {
	e.recs = append(e.recs[:0], ServiceRecord{OrderID: o.ID, Response: response, Detour: detour})
	e.book(w, 0, 0, 1, e.recs, e.Clock)
}

// rejectionFactor multiplies cost(lp, ld) into a rejected order's Unified
// Cost term; the paper uses 10 (Section VII-A, following [9]).
const rejectionFactor = 10

// Reject records a rejected order: METRS penalty p(i) plus the Unified
// Cost rejection term.
func (e *Env) Reject(o *order.Order, now float64) {
	penalty, unified := o.Penalty(), float64(rejectionFactor*o.DirectCost)
	e.Metrics.Rejected++
	e.Metrics.PenaltySum += penalty
	e.Metrics.RejectUnified += unified
	if e.observed() {
		e.emit(OrderRejected{Time: now, Order: o, Penalty: penalty, UnifiedPenalty: unified})
	}
}

// String summarizes the metrics in one line.
func (m *Metrics) String() string {
	return fmt.Sprintf("served=%d rejected=%d extra=%.0fs unified=%.0f rate=%.3f runtime=%.6fs/order",
		m.Served, m.Rejected, m.ExtraTime(), m.UnifiedCost(), m.ServiceRate(), m.RunningTime())
}
