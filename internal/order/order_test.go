package order

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func mkOrder(id int, release, direct, tauScale, eta float64) *Order {
	return &Order{
		ID:         id,
		Pickup:     0,
		Dropoff:    1,
		Riders:     1,
		Release:    release,
		Deadline:   release + tauScale*direct,
		WaitLimit:  eta * direct,
		DirectCost: direct,
	}
}

func TestMaxResponseAndPenalty(t *testing.T) {
	o := mkOrder(1, 100, 300, 1.6, 0.8)
	want := (1.6 - 1) * 300
	if got := o.MaxResponse(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("MaxResponse = %v, want %v", got, want)
	}
	if o.Penalty() != o.MaxResponse() {
		t.Fatal("penalty must equal max response time")
	}
}

func TestTimedOutAndExpired(t *testing.T) {
	o := mkOrder(1, 100, 300, 1.6, 0.8) // wait limit 240, deadline 580
	if o.TimedOut(100 + 240) {
		t.Fatal("not timed out exactly at the limit")
	}
	if !o.TimedOut(100 + 241) {
		t.Fatal("timed out past the limit")
	}
	if o.Expired(280) {
		t.Fatal("280+300 = 580 <= deadline: not expired")
	}
	if !o.Expired(281) {
		t.Fatal("281+300 > 580: expired")
	}
}

func TestValidate(t *testing.T) {
	good := mkOrder(1, 0, 100, 1.5, 0.5)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid order rejected: %v", err)
	}
	cases := []*Order{
		{ID: 2, Riders: 0, Deadline: 10},
		{ID: 3, Riders: 1, Release: 10, Deadline: 5},
		{ID: 4, Riders: 1, Deadline: 10, WaitLimit: -1},
		{ID: 5, Riders: 1, Deadline: 10, DirectCost: -2},
		// Non-finite fields: NaN passes every ordering comparison, and an
		// infinite release or deadline never lets the tick loop catch up.
		{ID: 6, Riders: 1, Release: math.NaN(), Deadline: 10},
		{ID: 7, Riders: 1, Release: math.Inf(1), Deadline: math.Inf(1)},
		{ID: 8, Riders: 1, Release: math.Inf(-1), Deadline: 10},
		{ID: 9, Riders: 1, Deadline: math.NaN()},
		{ID: 10, Riders: 1, Deadline: math.Inf(1)},
		{ID: 11, Riders: 1, Deadline: 10, WaitLimit: math.NaN()},
		{ID: 12, Riders: 1, Deadline: 10, WaitLimit: math.Inf(1)},
		{ID: 13, Riders: 1, Deadline: 10, DirectCost: math.NaN()},
		{ID: 14, Riders: 1, Deadline: 10, DirectCost: math.Inf(1)},
	}
	for _, c := range cases {
		if err := c.Validate(); !errors.Is(err, ErrInvalid) {
			t.Errorf("order %d: got %v, want an error wrapping ErrInvalid", c.ID, err)
		}
	}
}

func TestRoutePlanLookups(t *testing.T) {
	plan := &RoutePlan{
		Stops: []Stop{
			{Node: 0, Kind: PickupStop, OrderID: 7},
			{Node: 1, Kind: PickupStop, OrderID: 9},
			{Node: 2, Kind: DropoffStop, OrderID: 9},
			{Node: 3, Kind: DropoffStop, OrderID: 7},
		},
		Arrive: []float64{0, 60, 120, 200},
		Cost:   200,
	}
	if st, ok := plan.ServiceTime(7); !ok || st != 200 {
		t.Fatalf("ServiceTime(7) = %v,%v", st, ok)
	}
	if st, ok := plan.ServiceTime(9); !ok || st != 120 {
		t.Fatalf("ServiceTime(9) = %v,%v", st, ok)
	}
	if _, ok := plan.ServiceTime(42); ok {
		t.Fatal("unknown order must not resolve")
	}
}

func TestGroupAccounting(t *testing.T) {
	o1 := mkOrder(1, 0, 100, 2.0, 1.0)
	o2 := mkOrder(2, 10, 150, 2.0, 1.0)
	g := &Group{
		Orders: []*Order{o1, o2},
		Plan: &RoutePlan{
			Stops: []Stop{
				{Kind: PickupStop, OrderID: 1},
				{Kind: PickupStop, OrderID: 2},
				{Kind: DropoffStop, OrderID: 2},
				{Kind: DropoffStop, OrderID: 1},
			},
			Arrive: []float64{0, 30, 190, 240},
			Cost:   240,
		},
	}
	if g.Size() != 2 || g.Riders() != 2 {
		t.Fatalf("size/riders = %d/%d", g.Size(), g.Riders())
	}
	now := 20.0
	// o1: detour 240-100=140, response 20-0=20 => 160
	if ex := o1.ExtraTime(240, now); math.Abs(ex-160) > 1e-9 {
		t.Fatalf("extra(o1) = %v", ex)
	}
	// o2: detour 190-150=40, response 20-10=10 => 50
	if ex := o2.ExtraTime(190, now); math.Abs(ex-50) > 1e-9 {
		t.Fatalf("extra(o2) = %v", ex)
	}
	if avg := g.AvgExtraTime(now); math.Abs(avg-105) > 1e-9 {
		t.Fatalf("avg = %v", avg)
	}
}

func TestGroupKeyCanonical(t *testing.T) {
	a := &Group{Orders: []*Order{{ID: 5}, {ID: 2}, {ID: 19}}}
	b := &Group{Orders: []*Order{{ID: 19}, {ID: 5}, {ID: 2}}}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	c := &Group{Orders: []*Order{{ID: 5}, {ID: 2}}}
	if a.Key() == c.Key() {
		t.Fatal("different groups share a key")
	}
	// Key must not be ambiguous under concatenation (1,23 vs 12,3).
	d := &Group{Orders: []*Order{{ID: 1}, {ID: 23}}}
	e := &Group{Orders: []*Order{{ID: 12}, {ID: 3}}}
	if d.Key() == e.Key() {
		t.Fatal("ambiguous keys")
	}
}

func TestGroupKeyProperty(t *testing.T) {
	f := func(ids []int16) bool {
		if len(ids) == 0 {
			return true
		}
		orders := make([]*Order, len(ids))
		for i, id := range ids {
			orders[i] = &Order{ID: int(id)}
		}
		g1 := &Group{Orders: orders}
		rev := make([]*Order, len(orders))
		for i := range orders {
			rev[i] = orders[len(orders)-1-i]
		}
		g2 := &Group{Orders: rev}
		return g1.Key() == g2.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerIdle(t *testing.T) {
	w := &Worker{ID: 1, Capacity: 4, FreeAt: 100}
	if w.IdleAt(99) {
		t.Fatal("busy before FreeAt")
	}
	if !w.IdleAt(100) || !w.IdleAt(200) {
		t.Fatal("idle from FreeAt onward")
	}
}

func TestEmptyGroupAvg(t *testing.T) {
	g := &Group{}
	if g.AvgExtraTime(0) != 0 {
		t.Fatal("empty group average must be 0")
	}
}
