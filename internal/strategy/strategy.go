// Package strategy implements WATTER's dispatch decision strategies: the
// average-extra-time threshold strategy (paper Algorithm 2) plus the two
// framework baselines, online (dispatch as early as possible) and timeout
// (dispatch as late as possible). All three plug into the order pooling
// management algorithm in internal/core.
package strategy

import (
	"math"

	"watter/internal/order"
)

// Decision decides, at each periodic check, whether an order's current best
// group should be dispatched now or held for a better future group.
type Decision interface {
	// Name identifies the strategy in reports.
	Name() string
	// ShouldDispatch reports whether the group of the given members should
	// leave the pool at time now. avgExtra is the group's average extra
	// time t̄e if dispatched now (order.Group.AvgExtraTime) and groupExpiry
	// is τg, the latest time the group stays feasible. No route is needed:
	// the periodic check plans one only for a group it dispatches.
	ShouldDispatch(members []*order.Order, avgExtra, groupExpiry, now float64) bool
}

// Online dispatches every group at the first opportunity, mirroring
// WATTER-online: riders get the shortest possible response times at the
// price of worse groups. Loners still stay pooled: "If o(i) does not have a
// shareable group, it will remain in the pool and wait" (paper Section
// III) — what online accelerates is the dispatch of *groups*; solo service
// happens at the wait limit or last call, under every strategy
// (Algorithm 1 lines 14-16, core.Framework).
type Online struct{}

// Name implements Decision.
func (Online) Name() string { return "WATTER-online" }

// ShouldDispatch implements Decision: always dispatch.
func (Online) ShouldDispatch([]*order.Order, float64, float64, float64) bool { return true }

// Timeout holds every group as long as possible, mirroring WATTER-timeout:
// a group is released when its earliest member reaches its wait limit. A
// group about to expire (the next check would be too late) is the pooling
// framework's last call, which fires at the platform's Δt under every
// strategy.
type Timeout struct{}

// Name implements Decision.
func (Timeout) Name() string { return "WATTER-timeout" }

// ShouldDispatch implements Decision.
func (Timeout) ShouldDispatch(members []*order.Order, _, _, now float64) bool {
	return earliestTimeout(members) <= now
}

// ThresholdSource supplies the expected extra-time threshold θ(i) for an
// order in its current spatio-temporal environment. Implementations include
// the GMM-analytic optimizer (internal/gmm) and the learned value function
// (internal/mdp, θ = p - V(s)).
type ThresholdSource interface {
	Threshold(o *order.Order, now float64) float64
	// ThresholdRange bounds what Threshold(o, now) returns: lo ≤ θ ≤ hi
	// whenever θ is a number, and θ is NaN only if lo is -Inf (or NaN).
	// Unbounded's (-Inf, +Inf) claims nothing and is always correct. It
	// should be cheaper than Threshold: the threshold strategy asks it
	// first, to skip the θ its decision does not need.
	ThresholdRange(o *order.Order, now float64) (lo, hi float64)
}

// Unbounded is the ThresholdRange answer that claims nothing.
func Unbounded() (lo, hi float64) { return math.Inf(-1), math.Inf(1) }

// ConstantThreshold returns the same θ for every order; useful as an
// ablation and in tests.
type ConstantThreshold float64

// Threshold implements ThresholdSource.
func (c ConstantThreshold) Threshold(*order.Order, float64) float64 { return float64(c) }

// ThresholdRange implements ThresholdSource: the constant itself.
func (c ConstantThreshold) ThresholdRange(*order.Order, float64) (lo, hi float64) {
	return float64(c), float64(c)
}

// Threshold is the paper's Algorithm 2: dispatch when the group's average
// extra time t̄e is at most the members' average expected threshold θ̄, or
// when a member has exceeded its wait limit η.
type Threshold struct {
	Source ThresholdSource
}

// Name implements Decision.
func (*Threshold) Name() string { return "WATTER-expect" }

// ShouldDispatch implements Decision (Algorithm 2).
// avgExtra is line 4's t̄e.
func (s *Threshold) ShouldDispatch(members []*order.Order, avgExtra, _, now float64) bool {
	if earliestTimeout(members) <= now {
		return true // line 1-3: a member waited beyond its limit
	}
	return s.withinThreshold(members, avgExtra, now)
}

// withinThreshold is lines 5-6: avgExtra ≤ θ̄, with θ̄ the members' θ summed
// in member order and divided by their count. It asks for each θ only while
// the outcome is still open: before asking for member j it folds the θ
// known so far followed by the remaining members' ThresholdRange bounds, the
// low ends and the high ends separately. Replacing every remaining θ by its
// low end cannot raise the fold and by its high end cannot lower it —
// rounded addition and division by n > 0 are monotone as long as no +Inf
// meets a -Inf; a fold where one does is NaN and forces nothing, and a low
// fold of -Inf is refused outright — so if the low fold already
// dispatches, or the high fold holds, the full fold decides the same way.
// A NaN θ makes the full fold hold; it is only allowed under a -Inf low
// end, which keeps the low fold from forcing a dispatch.
func (s *Threshold) withinThreshold(members []*order.Order, avgExtra, now float64) bool {
	n := float64(len(members))
	var sum float64 // θ of the members asked so far, folded in member order
	for j, o := range members {
		lo, hi := sum, sum
		for _, r := range members[j:] {
			l, h := s.Source.ThresholdRange(r, now)
			lo += l
			hi += h
		}
		if lo > math.Inf(-1) && avgExtra <= lo/n {
			return true
		}
		if avgExtra > hi/n {
			return false
		}
		sum += s.Source.Threshold(o, now)
	}
	return avgExtra <= sum/n // line 6
}

// earliestTimeout returns min_i (t(i) + η(i)) over the group's members.
func earliestTimeout(members []*order.Order) float64 {
	earliest := math.Inf(1)
	for _, o := range members {
		if to := o.Release + o.WaitLimit; to < earliest {
			earliest = to
		}
	}
	return earliest
}
