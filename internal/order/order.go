// Package order defines the domain model of the METRS problem: orders,
// workers, groups and planned routes. It is deliberately free of algorithm
// logic — the pooling framework, strategies and baselines all operate on
// these types.
package order

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"watter/internal/geo"
)

// Order is a ride request o(i) = <lp, ld, c, t, tau, eta> (paper Def. 1).
type Order struct {
	ID      int
	Pickup  geo.NodeID // lp
	Dropoff geo.NodeID // ld
	Riders  int        // c, number of passengers in the request
	Release float64    // t, seconds since simulation start

	// Deadline is tau: the latest acceptable drop-off time.
	Deadline float64
	// WaitLimit is eta: the preferred maximum waiting time before the
	// platform responds. Exceeding it does not reject the order outright
	// (per the paper it merely forces dispatch-or-reject at the next
	// opportunity).
	WaitLimit float64
	// DirectCost caches cost(lp, ld), the shortest travel time of the
	// order alone. Filled once at admission; every feasibility and metric
	// computation reuses it.
	DirectCost float64
}

// MaxResponse returns the maximum response time the order can absorb before
// its deadline constraint necessarily fails: tau - t - cost(lp, ld).
func (o *Order) MaxResponse() float64 { return o.Deadline - o.Release - o.DirectCost }

// Penalty returns the METRS rejection penalty p(i), set to the maximum
// response time (paper Section II-B).
func (o *Order) Penalty() float64 { return o.MaxResponse() }

// TimedOut reports whether the order has waited longer than its preferred
// limit eta at time now.
func (o *Order) TimedOut(now float64) bool { return now-o.Release > o.WaitLimit }

// Expired reports whether the order can no longer meet its deadline even if
// dispatched alone right now.
func (o *Order) Expired(now float64) bool { return now+o.DirectCost > o.Deadline }

// ErrInvalid is the sentinel every refused order wraps: Validate's field
// checks and the platform's admission check (nil orders and the node-range
// check, which needs the network, so it lives in platform.Platform) alike.
// Match it with errors.Is.
var ErrInvalid = errors.New("invalid order")

// Validate returns an error wrapping ErrInvalid when the order's fields are
// non-finite or inconsistent. Finiteness comes first: a NaN passes every
// ordering comparison below, and an infinite release or deadline would have
// the stream fire ticks toward it forever.
func (o *Order) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"release", o.Release}, {"deadline", o.Deadline}, {"wait limit", o.WaitLimit}, {"direct cost", o.DirectCost}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("order %d: %s %v is not finite: %w", o.ID, f.name, f.v, ErrInvalid)
		}
	}
	switch {
	case o.Riders < 1:
		return fmt.Errorf("order %d: riders %d < 1: %w", o.ID, o.Riders, ErrInvalid)
	case o.Deadline < o.Release:
		return fmt.Errorf("order %d: deadline %.1f before release %.1f: %w", o.ID, o.Deadline, o.Release, ErrInvalid)
	case o.WaitLimit < 0:
		return fmt.Errorf("order %d: negative wait limit %.1f: %w", o.ID, o.WaitLimit, ErrInvalid)
	case o.DirectCost < 0:
		return fmt.Errorf("order %d: negative direct cost %.1f: %w", o.ID, o.DirectCost, ErrInvalid)
	}
	return nil
}

// StopKind distinguishes pickups from dropoffs in a route.
type StopKind int8

const (
	// PickupStop boards the order's riders.
	PickupStop StopKind = iota
	// DropoffStop delivers the order's riders.
	DropoffStop
)

func (k StopKind) String() string {
	if k == PickupStop {
		return "pickup"
	}
	return "dropoff"
}

// Stop is a single location visit in a planned route.
type Stop struct {
	Node    geo.NodeID
	Kind    StopKind
	OrderID int
	Riders  int
}

// RoutePlan is a feasible route L for a group of orders, starting at
// Stops[0] at time zero (offsets are relative to route start).
type RoutePlan struct {
	Stops []Stop
	// Arrive[i] is the travel-time offset (seconds from route start) at
	// which Stops[i] is reached. Arrive[0] == 0.
	Arrive []float64
	// Cost is T(L), the total travel time of the route: Arrive[last].
	Cost float64
}

// ServiceTime returns T(L(i)) for the given order: the offset from route
// start at which the order is dropped off. The boolean is false when the
// order is not part of the plan.
func (r *RoutePlan) ServiceTime(orderID int) (float64, bool) {
	for i, s := range r.Stops {
		if s.OrderID == orderID && s.Kind == DropoffStop {
			return r.Arrive[i], true
		}
	}
	return 0, false
}

// Group is a set of orders that share one route (paper's g) together with
// the minimal-cost feasible plan found for them.
type Group struct {
	Orders []*Order
	Plan   *RoutePlan
}

// planBox and groupBox lay a plan, or a group and its plan, out with their
// arrays in one object, so that building one is one allocation sized for
// its member count.
type planBox[S, A any] struct {
	plan   RoutePlan
	stops  S
	arrive A
}

type groupBox[O, S, A any] struct {
	group  Group
	orders O
	planBox[S, A]
}

func (r *RoutePlan) wire(stops []Stop, arrive []float64) *RoutePlan {
	r.Stops, r.Arrive = stops, arrive
	return r
}

func (g *Group) wire(orders []*Order, plan *RoutePlan) *Group {
	g.Orders, g.Plan = orders, plan
	return g
}

// NewRoutePlan returns a plan for k orders: 2k zero stops and arrivals. Up
// to four orders, the plan and both arrays are one allocation.
func NewRoutePlan(k int) *RoutePlan {
	switch k {
	case 1:
		b := new(planBox[[2]Stop, [2]float64])
		return b.plan.wire(b.stops[:], b.arrive[:])
	case 2:
		b := new(planBox[[4]Stop, [4]float64])
		return b.plan.wire(b.stops[:], b.arrive[:])
	case 3:
		b := new(planBox[[6]Stop, [6]float64])
		return b.plan.wire(b.stops[:], b.arrive[:])
	case 4:
		b := new(planBox[[8]Stop, [8]float64])
		return b.plan.wire(b.stops[:], b.arrive[:])
	}
	return &RoutePlan{Stops: make([]Stop, 2*k), Arrive: make([]float64, 2*k)}
}

// NewGroup returns a group of k nil members and a plan for them (see
// NewRoutePlan). For k = 2, 3 and 4 — every shared group the pool forms at
// its default size cap — the group, its member array and its plan are one
// allocation.
func NewGroup(k int) *Group {
	switch k {
	case 2:
		b := new(groupBox[[2]*Order, [4]Stop, [4]float64])
		return b.group.wire(b.orders[:], b.plan.wire(b.stops[:], b.arrive[:]))
	case 3:
		b := new(groupBox[[3]*Order, [6]Stop, [6]float64])
		return b.group.wire(b.orders[:], b.plan.wire(b.stops[:], b.arrive[:]))
	case 4:
		b := new(groupBox[[4]*Order, [8]Stop, [8]float64])
		return b.group.wire(b.orders[:], b.plan.wire(b.stops[:], b.arrive[:]))
	}
	return &Group{Orders: make([]*Order, k), Plan: NewRoutePlan(k)}
}

// Resize sets g to k members and its plan to 2k stops and arrivals, within
// the capacity of their arrays, so one group can be planned into again and
// again: a group from NewGroup(n) holds up to n members.
func (g *Group) Resize(k int) {
	g.Orders = g.Orders[:k]
	g.Plan.Stops, g.Plan.Arrive = g.Plan.Stops[:2*k], g.Plan.Arrive[:2*k]
}

// Size returns |g|.
func (g *Group) Size() int { return len(g.Orders) }

// Riders returns the total rider count of the group.
func (g *Group) Riders() int {
	total := 0
	for _, o := range g.Orders {
		total += o.Riders
	}
	return total
}

// IDs returns the sorted order IDs of the group; used as a canonical key.
func (g *Group) IDs() []int {
	ids := make([]int, len(g.Orders))
	for i, o := range g.Orders {
		ids[i] = o.ID
	}
	sort.Ints(ids)
	return ids
}

// Key returns a canonical string key for the group's member set.
func (g *Group) Key() string {
	ids := g.IDs()
	key := make([]byte, 0, len(ids)*4)
	for _, id := range ids {
		key = appendInt(key, id)
		key = append(key, ',')
	}
	return string(key)
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}

// alpha and beta weigh detour and response in extra time (paper Def. 6).
// Every experiment of the paper, and every caller here, uses 1 and 1; they
// are constants so no module can weigh extra time differently from another.
const (
	alpha = 1
	beta  = 1
)

// ExtraTime is the METRS extra time t_e = alpha*t_d + beta*t_r of a served
// order with detour t_d and response t_r (paper Def. 6). It is the one
// formula: Order.ExtraTime, the pool's cost-only candidate comparison, the
// simulator's booking (sim.Env.book) and the offline harvest all call it, so
// their bits always agree.
func ExtraTime(detour, response float64) float64 {
	return alpha*detour + beta*response
}

// ExtraTime returns the order's extra time given its service time st (offset
// from route start) when dispatched at now: detour t_d = st - cost(lp, ld),
// response t_r = now - t(i).
func (o *Order) ExtraTime(st, now float64) float64 {
	return ExtraTime(st-o.DirectCost, now-o.Release)
}

// AvgExtraTime returns the group's average extra time at dispatch time now
// (the t̄e used by the threshold-based strategy, Algorithm 2). It
// accumulates in g.Orders order — never over a map — so the value is a
// deterministic function of the group; the pool's plan cache compares
// these sums bit for bit between cached and freshly planned candidates.
func (g *Group) AvgExtraTime(now float64) float64 {
	if len(g.Orders) == 0 {
		return 0
	}
	var sum float64
	for _, o := range g.Orders {
		st, ok := g.Plan.ServiceTime(o.ID)
		if !ok {
			continue
		}
		sum += o.ExtraTime(st, now)
	}
	return sum / float64(len(g.Orders))
}

// Worker is a driver/vehicle w(j) = <l, k, a> (paper Def. 2). A worker
// serves one group at a time; Busy tracks the availability timeline.
type Worker struct {
	ID       int
	Loc      geo.NodeID // current location (last drop-off when busy)
	Capacity int        // k, max simultaneous riders
	// FreeAt is the simulation time at which the worker becomes idle
	// again. A worker is idle at time t iff FreeAt <= t.
	FreeAt float64
	// TravelCost accumulates the worker's total driving seconds; feeds the
	// Unified Cost metric.
	TravelCost float64
	// Served counts delivered groups.
	Served int
}

// ErrInvalidWorker is the sentinel every refused fleet member wraps; the
// checks need the network and the rest of the fleet, so they live where a
// fleet is handed over (platform.New). Match it with errors.Is.
var ErrInvalidWorker = errors.New("invalid worker")

// IdleAt reports whether the worker is available at time t.
func (w *Worker) IdleAt(t float64) bool { return w.FreeAt <= t }
