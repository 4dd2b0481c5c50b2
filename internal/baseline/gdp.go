// Package baseline implements the two comparison algorithms of the paper's
// evaluation: GDP, an online greedy-insertion dispatcher in the shape of
// Xu et al. [9], and GAS, a batch-based group enumerator in the shape of
// Zheng et al. [2]. Both run under the same simulator as the WATTER
// variants and report the same metrics.
package baseline

import (
	"math"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/route"
	"watter/internal/sim"
)

// gdpCandidateWorkers bounds how many nearby workers are tried per order
// (spatial pruning).
const gdpCandidateWorkers = 24

// GDP responds to every order immediately: it greedily inserts the pickup
// and dropoff into the route of the worker where the insertion increases
// total travel the least, and rejects the order when no feasible insertion
// exists. Workers run evolving multi-order schedules.
type GDP struct {
	env    *sim.Env
	states map[int]*workerState
}

type workerState struct {
	w   *order.Worker
	sch *route.Schedule
	// orders maps live order IDs in the schedule to their metadata.
	orders map[int]*order.Order
	// notify records the dispatch (insertion) time per order for the
	// detour metric: extra = dropoff - notify - direct.
	notify map[int]float64
	// done marks the prefix of sch already executed.
	done int
	// onboard counts riders currently in the vehicle.
	onboard int
	// curLoc/curTime are the location and departure time of the last
	// executed stop; between stops the vehicle is evaluated as if still
	// there (a bounded one-leg approximation, standard for insertion
	// baselines).
	curLoc  int32
	curTime float64
}

// Name implements sim.Algorithm.
func (g *GDP) Name() string { return "GDP" }

// Init implements sim.Algorithm.
func (g *GDP) Init(env *sim.Env) {
	g.env = env
	g.states = make(map[int]*workerState, len(env.Workers))
	for _, w := range env.Workers {
		g.states[w.ID] = &workerState{
			w:      w,
			sch:    &route.Schedule{},
			orders: make(map[int]*order.Order),
			notify: make(map[int]float64),
			curLoc: int32(w.Loc),
		}
	}
}

// OnOrder implements sim.Algorithm: real-time greedy insertion.
func (g *GDP) OnOrder(o *order.Order, now float64) {
	if o.Expired(now) {
		g.env.Reject(o, now)
		return
	}
	cands := g.env.WIndex.KNearest(o.Pickup, gdpCandidateWorkers, nil)
	var (
		bestState *workerState
		bestSch   *route.Schedule
		bestDelta = math.Inf(1)
	)
	for _, w := range cands {
		st := g.states[w.ID]
		g.advance(st, now)
		startLoc, startTime := g.position(st, now)
		sch, delta, ok := g.env.Planner.InsertOrder(
			remaining(st), st.orders, o, startLoc, startTime, st.w.Capacity, st.onboard)
		if !ok {
			continue
		}
		if delta < bestDelta-1e-9 {
			bestDelta = delta
			bestState = st
			bestSch = sch
		}
	}
	if bestState == nil {
		g.env.Reject(o, now)
		return
	}
	g.commit(bestState, bestSch, o, now, bestDelta)
}

// commit replaces the worker's remaining schedule with sch (which already
// contains o) and charges the travel delta.
func (g *GDP) commit(st *workerState, sch *route.Schedule, o *order.Order, now, delta float64) {
	// Keep the executed prefix, splice the new remainder.
	prefixStops := st.sch.Stops[:st.done]
	prefixTimes := st.sch.Times[:st.done]
	st.sch = &route.Schedule{
		Stops: append(append([]order.Stop{}, prefixStops...), sch.Stops...),
		Times: append(append([]float64{}, prefixTimes...), sch.Times...),
	}
	st.orders[o.ID] = o
	st.notify[o.ID] = now
	g.env.ServeWithWorker(st.w, delta)
	// Worker availability mirrors the schedule end for reporting.
	loc, t := st.sch.End(st.w.Loc, now)
	st.w.FreeAt = t
	st.w.Loc = loc
	g.env.WIndex.Update(st.w)
}

// advance executes schedule stops whose time has passed, completing
// dropoffs (metrics) and updating onboard counts.
func (g *GDP) advance(st *workerState, now float64) {
	for st.done < len(st.sch.Stops) && st.sch.Times[st.done] <= now {
		stop := st.sch.Stops[st.done]
		o := st.orders[stop.OrderID]
		switch stop.Kind {
		case order.PickupStop:
			st.onboard += stop.Riders
		case order.DropoffStop:
			st.onboard -= stop.Riders
			if o != nil {
				notify := st.notify[o.ID]
				response := notify - o.Release // ~0: GDP answers instantly
				detour := st.sch.Times[st.done] - notify - o.DirectCost
				if detour < 0 {
					detour = 0
				}
				g.env.ServeOrder(st.w, o, response, detour)
				delete(st.orders, o.ID)
				delete(st.notify, o.ID)
			}
		}
		st.curLoc = int32(stop.Node)
		st.curTime = st.sch.Times[st.done]
		st.done++
	}
}

// position returns the anchor for schedule evaluation: the last executed
// stop and its departure time for a busy worker, or the idle location at
// the current time for an idle one.
func (g *GDP) position(st *workerState, now float64) (geo.NodeID, float64) {
	if st.done < len(st.sch.Stops) {
		return geo.NodeID(st.curLoc), st.curTime
	}
	return geo.NodeID(st.curLoc), now
}

func remaining(st *workerState) *route.Schedule {
	return &route.Schedule{
		Stops: st.sch.Stops[st.done:],
		Times: st.sch.Times[st.done:],
	}
}

// OnTick implements sim.Algorithm: advance schedules so dropoff metrics
// land near their actual completion times. Iterates the worker slice, not
// the states map: metric sums are floating-point, so accumulation order
// must not depend on Go's randomized map iteration or identical seeds
// would produce run-to-run metric drift.
func (g *GDP) OnTick(now float64) {
	for _, w := range g.env.Workers {
		g.advance(g.states[w.ID], now)
	}
}

// Finish implements sim.Algorithm: run all schedules to completion.
func (g *GDP) Finish(now float64) {
	for _, w := range g.env.Workers {
		g.advance(g.states[w.ID], math.Inf(1))
	}
}
