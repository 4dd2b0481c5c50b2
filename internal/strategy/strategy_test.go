package strategy

import (
	"math"
	"testing"
	"testing/quick"

	"watter/internal/order"
)

func group(releases []float64, waitLimits []float64, arrive []float64, directs []float64) *order.Group {
	g := &order.Group{Plan: &order.RoutePlan{}}
	for i := range releases {
		o := &order.Order{
			ID: i + 1, Riders: 1,
			Release:    releases[i],
			WaitLimit:  waitLimits[i],
			DirectCost: directs[i],
			Deadline:   releases[i] + 10*directs[i],
		}
		g.Orders = append(g.Orders, o)
		g.Plan.Stops = append(g.Plan.Stops,
			order.Stop{Kind: order.PickupStop, OrderID: o.ID})
	}
	for i := range releases {
		g.Plan.Stops = append(g.Plan.Stops,
			order.Stop{Kind: order.DropoffStop, OrderID: i + 1})
	}
	// Arrive: pickups first (all 0), then the provided dropoff offsets.
	for range releases {
		g.Plan.Arrive = append(g.Plan.Arrive, 0)
	}
	g.Plan.Arrive = append(g.Plan.Arrive, arrive...)
	g.Plan.Cost = arrive[len(arrive)-1]
	return g
}

// dispatch asks d about g the way the periodic check does: with the
// members and the average extra time the planned route gives at now.
func dispatch(d Decision, g *order.Group, groupExpiry, now float64) bool {
	return d.ShouldDispatch(g.Orders, g.AvgExtraTime(now), groupExpiry, now)
}

func TestOnlineAlwaysDispatches(t *testing.T) {
	s := Online{}
	g := group([]float64{0}, []float64{100}, []float64{50}, []float64{40})
	if !dispatch(s, g, 1e9, 0) {
		t.Fatal("online must always dispatch")
	}
	if s.Name() != "WATTER-online" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestTimeoutHoldsUntilLimit(t *testing.T) {
	s := Timeout{}
	// One order released at 0 with wait limit 60; group expires at 500.
	g := group([]float64{0}, []float64{60}, []float64{50}, []float64{40})
	if dispatch(s, g, 500, 30) {
		t.Fatal("timeout must hold before the limit")
	}
	if !dispatch(s, g, 500, 60) {
		t.Fatal("timeout must dispatch at the limit")
	}
}

func TestTimeoutEarliestMemberWins(t *testing.T) {
	s := Timeout{}
	g := group([]float64{0, 40}, []float64{60, 60}, []float64{80, 90}, []float64{40, 40})
	// Earliest timeout is order 1 at t=60.
	if dispatch(s, g, 1e9, 59) {
		t.Fatal("held until earliest member limit")
	}
	if !dispatch(s, g, 1e9, 60) {
		t.Fatal("dispatch at earliest member limit")
	}
}

func TestThresholdAlgorithm2(t *testing.T) {
	s := &Threshold{Source: ConstantThreshold(100)}
	// Single order released at 0: dropoff offset 50, direct 40 => detour 10.
	g := group([]float64{0}, []float64{600}, []float64{50}, []float64{40})
	// At now=20: avg extra = detour 10 + response 20 = 30 <= 100 => dispatch.
	if !dispatch(s, g, 1e9, 20) {
		t.Fatal("extra below threshold must dispatch")
	}
	small := &Threshold{Source: ConstantThreshold(5)}
	if dispatch(small, g, 1e9, 20) {
		t.Fatal("extra above threshold must hold")
	}
	// Past the wait limit the threshold is bypassed (lines 1-3).
	if !dispatch(small, g, 1e9, 601) {
		t.Fatal("timed-out group must dispatch regardless of threshold")
	}
	if s.Name() != "WATTER-expect" {
		t.Fatalf("name = %q", s.Name())
	}
}

func TestThresholdAveragesOverMembers(t *testing.T) {
	// Two members: thresholds 10 and 90 => θ̄ = 50.
	src := perOrderSource{1: 10, 2: 90}
	s := &Threshold{Source: src}
	// dropoffs at 45 and 50, directs 40: detours 5, 10; at now=30 with
	// releases 0 and 20: responses 30, 10 => extras 35, 20 => avg 27.5.
	g := group([]float64{0, 20}, []float64{600, 600}, []float64{45, 50}, []float64{40, 40})
	if !dispatch(s, g, 1e9, 30) {
		t.Fatalf("avg extra 27.5 <= θ̄ 50 must dispatch")
	}
	// Lower the second threshold: θ̄ = (10+20)/2 = 15 < 27.5 => hold.
	s.Source = perOrderSource{1: 10, 2: 20}
	if dispatch(s, g, 1e9, 30) {
		t.Fatal("avg extra above θ̄ must hold")
	}
}

type perOrderSource map[int]float64

func (p perOrderSource) Threshold(o *order.Order, _ float64) float64 { return p[o.ID] }

func (p perOrderSource) ThresholdRange(*order.Order, float64) (lo, hi float64) { return Unbounded() }

// boundedSource answers member i's θ and range from the tables, by order ID
// (1-based), and counts the θ asked for.
type boundedSource struct {
	theta, lo, hi []float64
	asked         int
}

func (b *boundedSource) Threshold(o *order.Order, _ float64) float64 {
	b.asked++
	return b.theta[o.ID-1]
}

func (b *boundedSource) ThresholdRange(o *order.Order, _ float64) (lo, hi float64) {
	return b.lo[o.ID-1], b.hi[o.ID-1]
}

// fullFold is lines 5-6 as written before ThresholdRange existed: every θ,
// folded in member order.
func fullFold(theta []float64, avgExtra float64) bool {
	var sum float64
	for _, th := range theta {
		sum += th
	}
	return avgExtra <= sum/float64(len(theta))
}

func members(n int) []*order.Order {
	out := make([]*order.Order, n)
	for i := range out {
		out[i] = &order.Order{ID: i + 1}
	}
	return out
}

// TestThresholdAsksOnlyWhatItNeeds: bounds that already decide the
// comparison leave θ unasked, the decision is the full fold's either way,
// and unbounded members are always asked.
func TestThresholdAsksOnlyWhatItNeeds(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct {
		name          string
		theta, lo, hi []float64
		avgExtra      float64
		asked         int
	}{
		{"low ends dispatch", []float64{50, 60}, []float64{40, 40}, []float64{100, 100}, 30, 0},
		{"high ends hold", []float64{50, 60}, []float64{0, 0}, []float64{100, 100}, 120, 0},
		{"first θ decides", []float64{90, 60}, []float64{0, 0}, []float64{100, 100}, 96, 1},
		{"open to the end", []float64{50, 60}, []float64{0, 0}, []float64{100, 100}, 55, 2},
		{"unbounded member", []float64{50, 60}, []float64{0, -inf}, []float64{100, inf}, 10, 2},
		{"NaN θ under -Inf holds", []float64{math.NaN(), 60}, []float64{-inf, 40}, []float64{100, 100}, -inf, 2},
	} {
		src := &boundedSource{theta: c.theta, lo: c.lo, hi: c.hi}
		s := &Threshold{Source: src}
		got := s.withinThreshold(members(len(c.theta)), c.avgExtra, 0)
		if want := fullFold(c.theta, c.avgExtra); got != want {
			t.Fatalf("%s: bound-first %v, full fold %v", c.name, got, want)
		}
		if src.asked != c.asked {
			t.Fatalf("%s: asked for %d θ, want %d", c.name, src.asked, c.asked)
		}
	}
}

// FuzzThresholdDecision: for any θ inside its member's range (a NaN θ only
// under a -Inf low end, as the ThresholdSource contract allows), any
// ranges and any avgExtra, the bound-first decision is the full fold's.
// Each of the 1-3 members' (lo, θ, hi) comes from three arbitrary floats
// (member). The seed corpus in testdata/fuzz/FuzzThresholdDecision — signed
// zeros, subnormals, avgExtra exactly on a fold's mean, p = +Inf, NaN θ,
// -Inf meeting +Inf — runs in plain `go test`.
func FuzzThresholdDecision(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, avgExtra, lo0, th0, hi0, lo1, th1, hi1, lo2, th2, hi2 float64) {
		raw := [][3]float64{{lo0, th0, hi0}, {lo1, th1, hi1}, {lo2, th2, hi2}}[:1+int(n)%3]
		src := &boundedSource{}
		for _, r := range raw {
			lo, theta, hi := member(r)
			src.lo = append(src.lo, lo)
			src.theta = append(src.theta, theta)
			src.hi = append(src.hi, hi)
		}
		s := &Threshold{Source: src}
		got := s.withinThreshold(members(len(raw)), avgExtra, 0)
		if want := fullFold(src.theta, avgExtra); got != want {
			t.Fatalf("lo %v θ %v hi %v avgExtra %v: bound-first %v, full fold %v",
				src.lo, src.theta, src.hi, avgExtra, got, want)
		}
	})
}

// member turns three arbitrary floats into a (lo, θ, hi) the contract
// allows: a NaN θ gets a -Inf low end; otherwise the numbers among the three
// are put in order and a NaN end, which claims nothing, stays.
func member(r [3]float64) (lo, theta, hi float64) {
	lo, theta, hi = r[0], r[1], r[2]
	if math.IsNaN(theta) {
		return math.Inf(-1), theta, hi
	}
	if lo > theta {
		lo, theta = theta, lo
	}
	if hi < theta {
		hi, theta = theta, hi
	}
	if lo > theta {
		lo, theta = theta, lo
	}
	return lo, theta, hi
}

func TestConstantThreshold(t *testing.T) {
	c := ConstantThreshold(42)
	if c.Threshold(&order.Order{}, 0) != 42 {
		t.Fatal("constant threshold broken")
	}
}

// TestThresholdMonotoneProperty: raising every member's threshold can only
// flip decisions from hold to dispatch, never the reverse.
func TestThresholdMonotoneProperty(t *testing.T) {
	g := group([]float64{0, 5}, []float64{600, 600}, []float64{70, 90}, []float64{40, 60})
	f := func(rawLo, rawDelta uint16, rawNow uint8) bool {
		lo := float64(rawLo % 300)
		hi := lo + float64(rawDelta%300)
		now := 10 + float64(rawNow%200)
		sLo := &Threshold{Source: ConstantThreshold(lo)}
		sHi := &Threshold{Source: ConstantThreshold(hi)}
		dLo := dispatch(sLo, g, 1e9, now)
		dHi := dispatch(sHi, g, 1e9, now)
		return !dLo || dHi // dLo implies dHi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestThresholdTimeMonotoneProperty: with a fixed threshold, once a group
// is held it stays held as time passes only if its average extra keeps
// growing — i.e. dispatch decisions never flip from dispatch back to hold
// as now increases (extra time is nondecreasing in now for a fixed plan...
// so dispatchability is monotone downward). Verify that direction.
func TestThresholdTimeMonotoneProperty(t *testing.T) {
	g := group([]float64{0}, []float64{600}, []float64{80}, []float64{50})
	s := &Threshold{Source: ConstantThreshold(100)}
	f := func(rawA, rawB uint8) bool {
		a := float64(rawA) * 250 / 255
		b := float64(rawB) * 250 / 255
		if a > b {
			a, b = b, a
		}
		// avg extra grows with time => if held at a, held at b... inverse:
		// if dispatchable at b (later), it was dispatchable at a.
		dA := dispatch(s, g, 1e9, a)
		dB := dispatch(s, g, 1e9, b)
		if b <= 600 { // before the wait-limit bypass kicks in
			return !dB || dA
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
