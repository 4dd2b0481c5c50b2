package sim

import (
	"watter/internal/order"
)

// Algorithm is a dispatch policy; a platform.Platform drives it. Hooks are
// invoked with the environment clock already advanced; implementations
// dispatch and reject through the Env.
type Algorithm interface {
	// Name identifies the algorithm in reports ("WATTER-expect", "GDP", ...).
	Name() string
	// Init is called once before the run.
	Init(env *Env)
	// OnOrder is called when an order is released.
	OnOrder(o *order.Order, now float64)
	// OnTick is called every Δt seconds of simulated time (the paper's
	// asynchronous periodic check).
	OnTick(now float64)
	// Finish is called after the last order plus drain period; remaining
	// pooled orders must be dispatched or rejected here.
	Finish(now float64)
}
