package sim

import "watter/internal/order"

// Event is one observable outcome of a run, handed to every function
// registered with Env.Observe. The concrete variants are OrderAdmitted,
// GroupDispatched, OrderRejected and TickCompleted. The event sequence for a
// given (network, fleet, workload, algorithm, seed) is deterministic — same
// events, same order, same payloads — with one documented exception:
// TickCompleted.Metrics.DecisionSeconds measures wall-clock and varies run to
// run (DESIGN.md §8).
type Event interface {
	// When returns the simulation time of the event in seconds.
	When() float64
	// event is the closed-variant marker.
	event()
}

// OrderAdmitted fires when an order enters the stream, before the dispatch
// algorithm sees it. Order is the stream's copy — DirectCost already
// enriched — and must be treated as read-only.
type OrderAdmitted struct {
	Time  float64
	Order *order.Order
}

func (e OrderAdmitted) When() float64 { return e.Time }
func (OrderAdmitted) event()          {}

// ServiceRecord is one served order's share of a dispatch: the response and
// detour seconds that feed the extra-time metric (Def. 6). Response is
// dispatch-time minus release — the admit→dispatch latency the load harness
// histograms — so latency tails come straight off the event stream with no
// extra bookkeeping.
type ServiceRecord struct {
	OrderID  int
	Response float64
	Detour   float64
}

// GroupDispatched fires when a group (possibly a singleton) is booked on a
// worker, or when a schedule-based baseline completes one order inside a
// worker's evolving schedule (then RouteCost is zero and Orders has one
// record). WorkerID is zero only when no single worker is attributable.
// Approach is the worker's travel time to the route's first stop;
// worker-anchored plans fold it into RouteCost and report zero. Orders are
// exactly the records Metrics folded, in the order it folded them.
type GroupDispatched struct {
	Time      float64
	WorkerID  int
	Approach  float64
	RouteCost float64
	Orders    []ServiceRecord
}

func (e GroupDispatched) When() float64 { return e.Time }
func (GroupDispatched) event()          {}

// Size returns the number of orders sharing the dispatched route.
func (e GroupDispatched) Size() int { return len(e.Orders) }

// OrderRejected fires when an order is rejected, carrying the METRS penalty
// p(i) and the Unified Cost rejection term it contributed.
type OrderRejected struct {
	Time           float64
	Order          *order.Order
	Penalty        float64
	UnifiedPenalty float64
}

func (e OrderRejected) When() float64 { return e.Time }
func (OrderRejected) event()          {}

// TickCompleted fires after each periodic check with a snapshot of the
// metrics accumulated so far — the live-dashboard feed. All fields of Metrics
// are deterministic except DecisionSeconds (wall-clock).
type TickCompleted struct {
	Time    float64
	Metrics Metrics
}

func (e TickCompleted) When() float64 { return e.Time }
func (TickCompleted) event()          {}
