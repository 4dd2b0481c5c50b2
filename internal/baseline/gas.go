package baseline

import (
	"maps"
	"math"
	"slices"
	"sort"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
	"watter/internal/sim"
)

const (
	// gasBatchSeconds is the window size; the paper uses 5 s.
	gasBatchSeconds = 5
	// gasCandidateOrders bounds each idle worker's order candidate set
	// (nearest by pickup); the additive tree is exponential in it.
	gasCandidateOrders = 10
)

// GAS is the batch-based baseline: orders accumulate in fixed windows
// (5 seconds in the paper); at each window boundary, every idle worker
// grows an additive tree of feasible order groups (a group is expanded by
// adding one order at a time while a feasible route exists) and the
// (worker, group) pair with maximum utility is dispatched, repeating until
// no assignable group remains. Utility follows the SRPQ objective: the
// revenue proxy of the served orders (sum of their direct travel costs).
//
// Orders that stay unassigned carry over to later batches until their
// deadline passes, at which point they are rejected.
type GAS struct {
	env       *sim.Env
	pending   map[int]*order.Order
	nextBatch float64

	// Batching scratch for worker-to-pickup cost rows.
	candOrders []*order.Order
	pickupBuf  []geo.NodeID
	costBuf    []float64
}

// Name implements sim.Algorithm.
func (g *GAS) Name() string { return "GAS" }

// Init implements sim.Algorithm.
func (g *GAS) Init(env *sim.Env) {
	g.env = env
	g.pending = make(map[int]*order.Order)
	g.nextBatch = gasBatchSeconds
}

// OnOrder implements sim.Algorithm: orders wait for the batch boundary.
func (g *GAS) OnOrder(o *order.Order, now float64) {
	if o.Expired(now) {
		g.env.Reject(o, now)
		return
	}
	g.pending[o.ID] = o
}

// OnTick implements sim.Algorithm.
func (g *GAS) OnTick(now float64) {
	for now >= g.nextBatch {
		g.processBatch(g.nextBatch)
		g.nextBatch += gasBatchSeconds
	}
}

// Finish implements sim.Algorithm.
func (g *GAS) Finish(now float64) {
	g.processBatch(now)
	ids := g.pendingIDs()
	for _, id := range ids {
		g.env.Reject(g.pending[id], now)
		delete(g.pending, id)
	}
}

func (g *GAS) pendingIDs() []int {
	return slices.Sorted(maps.Keys(g.pending))
}

// processBatch runs the per-worker additive-tree enumeration and the
// greedy max-utility assignment loop.
func (g *GAS) processBatch(now float64) {
	// Expire stale pending orders first.
	for _, id := range g.pendingIDs() {
		if o := g.pending[id]; o.Expired(now) {
			g.env.Reject(o, now)
			delete(g.pending, id)
		}
	}
	for len(g.pending) > 0 {
		bestWorker, bestGroup, bestUtility := g.bestAssignment(now)
		if bestGroup == nil || bestUtility <= 0 {
			return // carry the remainder to the next batch
		}
		// The plan is anchored at the worker (PlanGroupFrom), so Plan.Cost
		// already holds the approach leg: the booking carries a zero one.
		if !g.env.DispatchGroupTo(bestWorker, 0, bestGroup, now) {
			return // should not happen: the worker was idle this round
		}
		for _, o := range bestGroup.Orders {
			delete(g.pending, o.ID)
		}
	}
}

// bestAssignment returns the highest-utility feasible group over every
// idle worker. Each idle worker enumerates its additive tree over its
// nearest pending orders.
func (g *GAS) bestAssignment(now float64) (*order.Worker, *order.Group, float64) {
	pendingIDs := g.pendingIDs()
	if len(pendingIDs) == 0 {
		return nil, nil, 0
	}
	var (
		bestWorker  *order.Worker
		bestGroup   *order.Group
		bestUtility = math.Inf(-1)
	)
	for _, w := range g.env.Workers {
		if !w.IdleAt(now) {
			continue
		}
		w := w
		cands := g.workerCandidates(w, pendingIDs, now)
		g.expandTree(w, cands, now, func(grp *order.Group) {
			u := utility(grp)
			if u > bestUtility+1e-9 {
				bestUtility = u
				bestGroup = grp
				bestWorker = w
			}
		})
	}
	return bestWorker, bestGroup, bestUtility
}

// workerCandidates returns the worker's nearest pending orders by pickup.
// All pickup costs for one worker are resolved in a single batched
// many-to-many call (one pruned search on a Graph-backed network instead of
// one full Dijkstra per pending order); unreachable pickups are dropped —
// no feasible route to them can exist for this worker.
func (g *GAS) workerCandidates(w *order.Worker, pendingIDs []int, now float64) []*order.Order {
	g.candOrders = g.candOrders[:0]
	g.pickupBuf = g.pickupBuf[:0]
	for _, id := range pendingIDs {
		o := g.pending[id]
		if o.Riders > w.Capacity {
			continue
		}
		g.candOrders = append(g.candOrders, o)
		g.pickupBuf = append(g.pickupBuf, o.Pickup)
	}
	if len(g.candOrders) == 0 {
		return nil
	}
	if cap(g.costBuf) < len(g.pickupBuf) {
		g.costBuf = make([]float64, len(g.pickupBuf))
	}
	g.costBuf = g.costBuf[:len(g.pickupBuf)]
	src := [1]geo.NodeID{w.Loc}
	roadnet.FillCostMatrix(g.env.Net, src[:], g.pickupBuf, g.costBuf)

	type scored struct {
		o *order.Order
		c float64
	}
	var s []scored
	for i, o := range g.candOrders {
		if math.IsInf(g.costBuf[i], 1) {
			continue
		}
		s = append(s, scored{o, g.costBuf[i]})
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].c != s[j].c {
			return s[i].c < s[j].c
		}
		return s[i].o.ID < s[j].o.ID
	})
	if len(s) > gasCandidateOrders {
		s = s[:gasCandidateOrders]
	}
	out := make([]*order.Order, len(s))
	for i, x := range s {
		out[i] = x.o
	}
	return out
}

// expandTree grows groups additively: every feasible group (with a route
// anchored at the worker's location) is visited; children add one more
// candidate order. Infeasible nodes prune their whole subtree — the
// additive-tree property that a superset of an infeasible group stays
// infeasible for the same worker holds because adding stops never shortens
// any member's service time.
func (g *GAS) expandTree(w *order.Worker, cands []*order.Order, now float64, visit func(*order.Group)) {
	var members []*order.Order
	var rec func(start int, riders int)
	rec = func(start, riders int) {
		for i := start; i < len(cands); i++ {
			o := cands[i]
			if riders+o.Riders > w.Capacity {
				continue
			}
			members = append(members, o)
			plan, ok := g.env.Planner.PlanGroupFrom(members, now, w.Capacity, w.Loc)
			if ok {
				grp := &order.Group{Orders: append([]*order.Order(nil), members...), Plan: plan}
				visit(grp)
				if len(members) < w.Capacity {
					rec(i+1, riders+o.Riders)
				}
			}
			members = members[:len(members)-1]
		}
	}
	rec(0, 0)
}

// utility is the SRPQ revenue proxy: total direct cost of served orders.
func utility(g *order.Group) float64 {
	var u float64
	for _, o := range g.Orders {
		u += o.DirectCost
	}
	return u
}
