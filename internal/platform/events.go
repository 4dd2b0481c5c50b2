package platform

import "watter/internal/sim"

// The event types are recorded and emitted by sim, where outcomes happen;
// the platform delivers them and keeps their names as its public API.
type (
	// Event is one observable platform outcome; the concrete variants are
	// OrderAdmitted, GroupDispatched, OrderRejected and TickCompleted.
	Event = sim.Event
	// OrderAdmitted fires when an order enters the platform.
	OrderAdmitted = sim.OrderAdmitted
	// ServiceRecord is one served order's share of a dispatch.
	ServiceRecord = sim.ServiceRecord
	// GroupDispatched fires when a group is booked on a worker.
	GroupDispatched = sim.GroupDispatched
	// OrderRejected fires when an order is rejected, with its penalties.
	OrderRejected = sim.OrderRejected
	// TickCompleted fires after each periodic check with a metrics snapshot.
	TickCompleted = sim.TickCompleted
)

// tap is the platform's one observer on the simulation environment. It hands
// every event to the platform's two delivery paths: the synchronous observer
// callback (journal recorders — sees every event first, never buffers) and
// the typed event channel (dashboards — sends block when the buffer is full,
// so no event is ever dropped; consumers must drain or size the buffer
// accordingly). Either path may be absent.
type tap struct {
	fn func(Event)
	ch chan Event
	// highWater is the deepest channel backlog ever observed at a delivery;
	// blockedSends counts deliveries that found the buffer already full (the
	// feeder stalled until the consumer caught up). Both are written only
	// from the feeding goroutine and surface through Stats as the
	// queue-depth sampling hook the load harness builds on.
	highWater    int
	blockedSends uint64
}

// deliver hands one event to whichever paths exist, observer first.
func (t *tap) deliver(ev Event) {
	if t.fn != nil {
		t.fn(ev)
	}
	if t.ch != nil {
		if len(t.ch) == cap(t.ch) {
			t.blockedSends++
		}
		t.ch <- ev
		if d := len(t.ch); d > t.highWater {
			t.highWater = d
		}
	}
}
