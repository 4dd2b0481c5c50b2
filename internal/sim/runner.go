package sim

import (
	"watter/internal/order"
)

// Algorithm is a dispatch policy driven by the simulator. Hooks are invoked
// with the environment clock already advanced; implementations dispatch and
// reject through the Env.
type Algorithm interface {
	// Name identifies the algorithm in reports ("WATTER-expect", "GDP", ...).
	Name() string
	// Init is called once before the run.
	Init(env *Env)
	// OnOrder is called when an order is released.
	OnOrder(o *order.Order, now float64)
	// OnTick is called every TickEvery seconds of simulated time (the
	// paper's asynchronous periodic check).
	OnTick(now float64)
	// Finish is called after the last order plus drain period; remaining
	// pooled orders must be dispatched or rejected here.
	Finish(now float64)
}

// RunOptions tunes a simulation run.
type RunOptions struct {
	// TickEvery is the periodic-check interval Δt in seconds (paper
	// default: 10 s). Must be positive: there is no silent defaulting —
	// start from DefaultRunOptions.
	TickEvery float64
	// MeasureTime enables wall-clock accounting of algorithm hooks
	// (Metrics.DecisionSeconds). Disable inside benchmarks that measure
	// externally.
	MeasureTime bool
}

// DefaultRunOptions returns the paper's Δt = 10 s with time measurement on.
func DefaultRunOptions() RunOptions {
	return RunOptions{TickEvery: 10, MeasureTime: true}
}

// Run is paper-replication mode: it replays a pre-materialized order
// stream through the streaming core (Stream.Replay: clone, stable-sort
// by release, submit, drain) and returns the final metrics. The caller's
// slice — including the orders it points to — is never mutated;
// admission-time enrichment (DirectCost) happens on the stream's private
// copies. Run panics on invalid options: it keeps the historical
// error-free signature, and the validated, error-returning surface is
// the platform constructor.
func Run(env *Env, alg Algorithm, orders []*order.Order, opts RunOptions) *Metrics {
	stream, err := NewStream(env, alg, opts)
	if err != nil {
		panic(err)
	}
	if err := stream.Replay(orders); err != nil {
		panic(err) // nil order, or releases that outrun their own sort
	}
	m, err := stream.Close()
	if err != nil {
		panic(err) // unreachable: Close is the stream's first and last
	}
	return m
}
