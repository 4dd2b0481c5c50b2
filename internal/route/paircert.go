package route

import (
	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// pairRoutes lists the six event orders that serve two orders with each
// pickup before its own dropoff. Events index a pair's leg-block rows:
// 0 = pickup a, 1 = dropoff a, 2 = pickup b, 3 = dropoff b. In the first
// four both orders ride together between the second pickup and the first
// dropoff; the last two serve one order after the other.
var pairRoutes = [6][4]int{
	{0, 2, 1, 3}, {0, 2, 3, 1}, {2, 0, 1, 3}, {2, 0, 3, 1},
	{0, 1, 2, 3}, {2, 3, 0, 1},
}

// PairInfeasible reports whether lower bounds on the legs alone prove that
// PlanGroupCost would find no feasible route for the pair at time now. It
// replays the DP's checks — capacity at the second pickup, now+t against the
// deadline at each dropoff — over the six possible routes with every leg
// replaced by its bound. Each DP arrival is a left-to-right float64 sum of
// legs, and rounding is monotone, so an arrival on bounds never exceeds the
// arrival on exact legs: a route that misses a deadline on bounds misses it
// on exact legs, and a pair with no surviving route has none in the DP
// either. The converse does not hold (false means "run the DP"). The
// pickup-to-dropoff leg of each order is bounded like any other rather than
// read from Order.DirectCost, which is caller-supplied.
func PairInfeasible(net roadnet.BoundedNetwork, a, b *order.Order, now float64, capacity int) bool {
	if a.Riders > capacity || b.Riders > capacity {
		return true
	}
	loc := [4]geo.NodeID{a.Pickup, a.Dropoff, b.Pickup, b.Dropoff}
	var legs [16]float64
	for i, from := range loc {
		for j, to := range loc {
			if i == j || (i%2 == 1 && j == i-1) {
				continue // a dropoff never precedes its own pickup
			}
			legs[i*4+j] = net.CostLowerBound(from, to)
		}
	}
	deadline := [4]float64{1: a.Deadline, 3: b.Deadline}
	together := a.Riders+b.Riders <= capacity
	for r, route := range pairRoutes {
		if r < 4 && !together {
			continue
		}
		t, ok := 0.0, true
		for k := 1; k < 4 && ok; k++ {
			t += legs[route[k-1]*4+route[k]]
			if ev := route[k]; ev%2 == 1 && now+t > deadline[ev] {
				ok = false
			}
		}
		if ok {
			return false
		}
	}
	return true
}
