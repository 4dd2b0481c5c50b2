package platform

import "watter/internal/sim"

// The event types are recorded and emitted by sim, where outcomes happen;
// the platform hands them to its observer and keeps their names as its
// public API.
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
