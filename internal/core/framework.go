// Package core implements the WATTER framework's order pooling management
// algorithm (paper Algorithm 1): new orders join the temporal shareability
// graph, edges and groups expire as time passes, and an asynchronous
// periodic check walks the pool deciding — per order, via a pluggable
// strategy — whether its current best group should be dispatched to the
// closest available worker.
package core

import (
	"math"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/pool"
	"watter/internal/route"
	"watter/internal/shard"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// Framework is the WATTER order pooling manager. It satisfies
// sim.Algorithm; the Decision strategy selects the WATTER variant
// (online / timeout / expect).
type Framework struct {
	Decide  strategy.Decision
	PoolOpt pool.Options
	// Shards is the goroutine count of an insert's pairwise prewarm (see
	// internal/shard). 1 — the default — plans every pair on the calling
	// goroutine; K > 1 runs an insert's pair DPs on K goroutines and merges
	// them in candidate order, so every decision is bit-identical to the
	// K = 1 run. The periodic check is sequential at any K.
	Shards int

	// tick is the periodic-check interval Δt, set by SetTick; the framework
	// uses it for "last call" dispatches: a group (or solo order) whose
	// feasibility horizon ends before the next check is dispatched now
	// regardless of the strategy — the paper's "orders will only be
	// rejected when they cannot be served in the extreme cases".
	tick   float64
	env    *sim.Env
	pool   *pool.Pool
	engine *shard.Engine
	// ids is the buffer of the pooled-ID snapshot a check walks.
	ids []int
	// box is the group every dispatch is planned into, shared or solo, with
	// room for route.MaxGroupSize members. Reusing it is safe: the Env
	// keeps nothing of a dispatched group (it books copies of its records).
	box *order.Group
}

// New builds a framework with the given decision strategy and pool options
// and the paper's default Δt = 10 s.
func New(decide strategy.Decision, opt pool.Options) *Framework {
	return &Framework{Decide: decide, PoolOpt: opt, tick: 10, Shards: 1}
}

// Name implements sim.Algorithm.
func (f *Framework) Name() string { return f.Decide.Name() }

// Pool exposes the shareability graph (read-only use: MDP featurization).
func (f *Framework) Pool() *pool.Pool { return f.pool }

// ShardEngine exposes the prewarm engine, nil when Shards <= 1 or before
// Init (benchmarks read its stats).
func (f *Framework) ShardEngine() *shard.Engine { return f.engine }

// SetTick aligns the framework's last-call horizon with the platform's
// periodic-check interval. Must be called before Init; platform.New calls
// it, so Δt is configured in exactly one place (platform.WithTick).
func (f *Framework) SetTick(dt float64) { f.tick = dt }

// SetPoolOptions replaces the shareability-graph tuning before a run.
// Must be called before Init; the plan-cache equivalence test and the
// benchmarks use it.
func (f *Framework) SetPoolOptions(opt pool.Options) { f.PoolOpt = opt }

// SetShards sets the prewarm engine's goroutine count before a run (values
// below 1 mean 1: no engine). Must be called before Init; the platform's
// WithShards option uses it. Results are bit-identical at any count.
func (f *Framework) SetShards(k int) {
	if k < 1 {
		k = 1
	}
	f.Shards = k
}

// Init implements sim.Algorithm.
func (f *Framework) Init(env *sim.Env) {
	f.env = env
	opt := f.PoolOpt
	if opt.Capacity == 0 {
		opt.Capacity = env.Cfg.Capacity
	}
	f.pool = pool.New(env.Planner, env.Index, opt)
	f.box = order.NewGroup(route.MaxGroupSize)
	f.engine = nil
	if f.Shards > 1 {
		f.engine = shard.NewEngine(f.Shards)
	}
}

// OnOrder implements sim.Algorithm: lines 2-4 of Algorithm 1. An order that
// cannot be served even alone is rejected immediately. With the prewarm
// engine on, the pairwise shareability plans the insert needs are computed
// on its goroutines first — pure work whose merged results leave the
// pool's decisions untouched.
func (f *Framework) OnOrder(o *order.Order, now float64) {
	if o.Expired(now) || o.MaxResponse() < 0 {
		f.env.Reject(o, now)
		return
	}
	if f.engine != nil {
		f.pool.PrewarmPairs(o, now, f.engine)
	}
	f.pool.Insert(o, now)
}

// OnTick implements sim.Algorithm: lines 5-16 of Algorithm 1.
func (f *Framework) OnTick(now float64) {
	// Lines 5-6: drop expired edges/groups; reject orders whose deadlines
	// became unreachable.
	for _, id := range f.pool.ExpireEdges(now) {
		o := f.pool.Order(id)
		f.pool.Remove(id, now)
		f.env.Reject(o, now)
	}
	f.checkOrders(now, false)
}

// Finish implements sim.Algorithm: the pool drains — every remaining order
// is dispatched if any feasible group and worker exist, otherwise rejected.
func (f *Framework) Finish(now float64) {
	for _, id := range f.pool.ExpireEdges(now) {
		o := f.pool.Order(id)
		f.pool.Remove(id, now)
		f.env.Reject(o, now)
	}
	f.checkOrders(now, true)
	// Whatever could not be dispatched (no worker / no feasible group) is
	// rejected so metrics account for every order.
	f.ids = f.pool.AppendOrderIDs(f.ids[:0])
	for _, id := range f.ids {
		o := f.pool.Order(id)
		f.pool.Remove(id, now)
		f.env.Reject(o, now)
	}
}

// checkOrders is the asynchronous periodic check (lines 8-16). When force
// is true every order with a feasible group is dispatched regardless of the
// strategy (used at drain time).
//
// Hold decisions are approach-aware: the pool's τg assumes the route starts
// at its first pickup, but a real dispatch prepends the assigned worker's
// approach leg, so a group held until the bare τg would be physically
// infeasible by the time a worker reaches it. The framework therefore
// shrinks the horizon it hands to the strategy (and its own last-call
// checks) by the current nearest idle worker's travel time.
func (f *Framework) checkOrders(now float64, force bool) {
	// One fleet scan gates all horizon probes: with no idle worker the
	// probe would return 0 anyway, and per-order ring searches in a
	// saturated sim would only burn time.
	anyIdle := false
	for _, w := range f.env.Workers {
		if w.IdleAt(now) {
			anyIdle = true
			break
		}
	}
	f.ids = f.pool.AppendOrderIDs(f.ids[:0])
	for _, id := range f.ids {
		if !f.pool.Contains(id) {
			continue // removed earlier this pass as part of a group
		}
		o := f.pool.Order(id)
		// The check reads the best group without a route; only a group it
		// dispatches is planned, into the kept box.
		best, ok := f.pool.Best(id)
		var expiry float64
		// One probe serves both the horizon shrink and the dispatch: the
		// found (worker, approach) pair is handed straight to
		// DispatchGroupTo, since nothing mutates worker state between the
		// probe and the strategy's (pure) decision.
		var gw *order.Worker
		var gApproach float64
		if ok {
			expiry = best.Expiry()
			if anyIdle {
				gw, gApproach = f.env.WIndex.ClosestIdleWithin(
					best.Start(), now, best.Riders(), expiry-now)
				if gw != nil {
					expiry -= gApproach
				}
			}
		}
		// Last call: the group becomes infeasible before the next check.
		groupLastCall := ok && expiry < now+f.tick
		if ok && (force || groupLastCall || f.Decide.ShouldDispatch(best.Members(), best.AvgExtraTime(now), expiry, now)) {
			if gw != nil && f.pool.PlanBest(id, f.box) && f.env.DispatchGroupTo(gw, gApproach, f.box, now) {
				f.pool.RemoveGroup(f.box, now)
				continue
			}
			// No feasible worker for the group; fall through so a
			// last-call order can still try solo service before its
			// deadline dies.
		}
		// Lines 14-16: no shared group dispatched. Solo service happens
		// at the wait limit, at solo last call, or at drain time.
		// The probe is skipped when the zero-approach bound already fires
		// (approach >= 0 can only strengthen it) or nobody is idle.
		soloApproach := 0.0
		if anyIdle && now+f.tick+o.DirectCost <= o.Deadline {
			soloApproach = f.approachFor(o.Pickup, now, o.Riders, o.Deadline-now-o.DirectCost)
		}
		soloLastCall := now+f.tick+soloApproach+o.DirectCost > o.Deadline
		if ok && !force && !soloLastCall {
			continue // holding a live shared group
		}
		if force || soloLastCall || o.TimedOut(now) {
			f.serveSoloOrReject(o, now, force)
		}
	}
}

// approachFor returns the travel time of the nearest idle worker that
// could still serve within budget — the same budget-filtered cost notion
// DispatchGroup uses, so a grid-near but road-slow worker does not distort
// the horizon. Returns 0 when no idle worker fits the budget right now:
// with nobody to dispatch to, the hold decision falls back to the
// plan-only horizon instead of rushing every order into an early solo
// attempt (a closer worker may free up before the horizon dies).
func (f *Framework) approachFor(node geo.NodeID, now float64, riders int, budget float64) float64 {
	_, a := f.env.WIndex.ClosestIdleWithin(node, now, riders, budget)
	if math.IsInf(a, 1) {
		return 0
	}
	return a
}

// serveSoloOrReject plans a singleton route for o into the kept box. Served
// if feasible and a worker is idle; rejected when the route is infeasible
// or (at timeout / drain) nobody can take it.
func (f *Framework) serveSoloOrReject(o *order.Order, now float64, force bool) {
	g := f.box
	g.Resize(1)
	g.Orders[0] = o
	if !f.env.Planner.PlanGroupInto(g.Plan, g.Orders, now, f.env.Cfg.Capacity, nil) {
		f.pool.Remove(o.ID, now)
		f.env.Reject(o, now)
		return
	}
	if f.env.DispatchGroup(g, now) {
		f.pool.Remove(o.ID, now)
		return
	}
	if force {
		f.pool.Remove(o.ID, now)
		f.env.Reject(o, now)
	}
	// Otherwise: no idle worker; keep waiting ("served when there are
	// suitable workers, otherwise rejected") until the deadline expires.
}
