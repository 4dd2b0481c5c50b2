package route

import (
	"maps"
	"math"

	"watter/internal/geo"
	"watter/internal/order"
)

// Schedule is a worker's in-progress stop sequence with absolute arrival
// times. The greedy-insertion baseline (GDP) mutates schedules by inserting
// new pickup/dropoff pairs; the simulator advances them as time passes.
type Schedule struct {
	Stops []order.Stop
	// Times[i] is the absolute simulation time at which Stops[i] is
	// reached assuming the worker departs on schedule.
	Times []float64
}

// End returns the time and location at which the schedule completes. For an
// empty schedule it returns the provided fallbacks.
func (s *Schedule) End(fallbackLoc geo.NodeID, fallbackTime float64) (geo.NodeID, float64) {
	if len(s.Stops) == 0 {
		return fallbackLoc, fallbackTime
	}
	last := len(s.Stops) - 1
	return s.Stops[last].Node, s.Times[last]
}

// Evaluate computes the arrival times for a stop sequence departing from
// `start` at time `startTime`, and checks the three feasibility constraints.
// `onboard` is the number of riders already in the vehicle at departure
// (riders whose pickup already happened and whose dropoff appears in the
// sequence). orders resolves each stop's deadline. Returns (times, total
// travel seconds, true) when feasible.
func (p *Planner) Evaluate(stops []order.Stop, orders map[int]*order.Order, start geo.NodeID, startTime float64, capacity, onboard int) ([]float64, float64, bool) {
	picked := make(map[int]bool, len(stops))
	times := make([]float64, len(stops))
	t := startTime
	var travel float64
	cur := start
	load := onboard
	for i, s := range stops {
		leg := p.Net.Cost(cur, s.Node)
		if math.IsInf(leg, 1) {
			return nil, 0, false
		}
		t += leg
		travel += leg
		times[i] = t
		cur = s.Node
		o := orders[s.OrderID]
		switch s.Kind {
		case order.PickupStop:
			if o == nil {
				return nil, 0, false
			}
			picked[s.OrderID] = true
			load += s.Riders
			if load > capacity {
				return nil, 0, false
			}
		case order.DropoffStop:
			if o == nil {
				return nil, 0, false
			}
			// Sequential constraint: a dropoff for an order that was not
			// picked up in this sequence is only legal when the rider is
			// already onboard (counted in `onboard`).
			if !picked[s.OrderID] {
				if onboard <= 0 {
					return nil, 0, false
				}
			}
			load -= s.Riders
			if load < 0 {
				return nil, 0, false
			}
			if t > o.Deadline {
				return nil, 0, false
			}
		}
	}
	return times, travel, true
}

// InsertOrder finds the cheapest feasible insertion of o's pickup and
// dropoff into the schedule (pickup at position i, dropoff at position
// j >= i), the classic insertion operator of the GDP baseline. The worker
// departs from start at startTime with `onboard` riders already in the
// vehicle. Returns the new schedule, the increase in travel seconds, and
// whether any feasible insertion exists.
func (p *Planner) InsertOrder(sch *Schedule, orders map[int]*order.Order, o *order.Order, start geo.NodeID, startTime float64, capacity, onboard int) (*Schedule, float64, bool) {
	if orders[o.ID] == nil {
		aug := make(map[int]*order.Order, len(orders)+1)
		maps.Copy(aug, orders)
		aug[o.ID] = o
		orders = aug
	}
	_, baseTravel, ok := p.Evaluate(sch.Stops, orders, start, startTime, capacity, onboard)
	if !ok {
		return nil, 0, false
	}
	n := len(sch.Stops)
	var (
		bestStops []order.Stop
		bestTimes []float64
		bestDelta = math.Inf(1)
		bestFound bool
	)
	pick := order.Stop{Node: o.Pickup, Kind: order.PickupStop, OrderID: o.ID, Riders: o.Riders}
	drop := order.Stop{Node: o.Dropoff, Kind: order.DropoffStop, OrderID: o.ID, Riders: o.Riders}
	for i := 0; i <= n; i++ {
		for j := i; j <= n; j++ {
			cand := make([]order.Stop, 0, n+2)
			cand = append(cand, sch.Stops[:i]...)
			cand = append(cand, pick)
			cand = append(cand, sch.Stops[i:j]...)
			cand = append(cand, drop)
			cand = append(cand, sch.Stops[j:]...)
			times, travel, ok := p.Evaluate(cand, orders, start, startTime, capacity, onboard)
			if !ok {
				continue
			}
			delta := travel - baseTravel
			if delta < bestDelta-1e-9 {
				bestDelta = delta
				bestStops = cand
				bestTimes = times
				bestFound = true
			}
		}
	}
	if !bestFound {
		return nil, 0, false
	}
	return &Schedule{Stops: bestStops, Times: bestTimes}, bestDelta, true
}
