package platform

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
	"watter/internal/sim"
)

// TestSubmitRefusesHostileOrders: one malformed order must never hang, panic
// or poison the platform. Each case used to do one of those — an infinite
// deadline made Close tick forever, an infinite release made Submit itself
// tick forever, a node outside the network panicked inside the graph search
// (and was silently priced on the closed-form city), a NaN slipped through
// every ordering comparison into the clock or the metrics. Now each is
// refused with an error wrapping order.ErrInvalid before any state moves,
// first order or not, and valid orders around it are served as if it had
// never been sent. Every platform call runs under a timeout so a regression
// fails here instead of hanging the suite.
func TestSubmitRefusesHostileOrders(t *testing.T) {
	nets := map[string]roadnet.Network{
		"gridcity": roadnet.NewGridCity(10, 10, 100, 10),
		"graph":    roadnet.NewPerturbedGrid(10, 10, 150, 8, 0.3, 4),
	}
	hostile := map[string]func(o *order.Order){
		"deadline +Inf":         func(o *order.Order) { o.Deadline = math.Inf(1) },
		"release +Inf":          func(o *order.Order) { o.Release, o.Deadline = math.Inf(1), math.Inf(1) },
		"release -Inf":          func(o *order.Order) { o.Release = math.Inf(-1) },
		"release NaN":           func(o *order.Order) { o.Release = math.NaN() },
		"deadline NaN":          func(o *order.Order) { o.Deadline = math.NaN() },
		"wait limit NaN":        func(o *order.Order) { o.WaitLimit = math.NaN() },
		"wait limit +Inf":       func(o *order.Order) { o.WaitLimit = math.Inf(1) },
		"direct cost NaN":       func(o *order.Order) { o.DirectCost = math.NaN() },
		"direct cost +Inf":      func(o *order.Order) { o.DirectCost = math.Inf(1) },
		"pickup far past range": func(o *order.Order) { o.Pickup = 1 << 30 },
		"pickup one past range": func(o *order.Order) { o.Pickup = 100 },
		"pickup negative":       func(o *order.Order) { o.Pickup = -7 },
		"dropoff past range":    func(o *order.Order) { o.Dropoff = 1 << 30; o.DirectCost = 0 },
		"dropoff negative":      func(o *order.Order) { o.Dropoff = geo.InvalidNode; o.DirectCost = 0 },
	}
	for netName, net := range nets {
		for name, corrupt := range hostile {
			t.Run(netName+"/"+name, func(t *testing.T) {
				valid := func(id int, rel float64) *order.Order {
					direct := net.Cost(0, 5)
					return &order.Order{ID: id, Pickup: 0, Dropoff: 5, Riders: 1,
						Release: rel, Deadline: rel + 2*direct, WaitLimit: 0.8 * direct, DirectCost: direct}
				}
				// One idle worker waiting at the pickup per valid order.
				fleet := []*order.Worker{{ID: 1, Loc: 0, Capacity: 4}, {ID: 2, Loc: 0, Capacity: 4}}
				events := 0
				p, err := New(net, fleet, WithMeasuredTime(false), WithObserver(func(Event) { events++ }))
				if err != nil {
					t.Fatal(err)
				}
				refuse := func(when string, rel float64) {
					t.Helper()
					bad := valid(666, rel)
					corrupt(bad)
					before, seen := p.Stats(), events
					var err error
					within(t, when, func() { err = p.Submit(bad) })
					if !errors.Is(err, order.ErrInvalid) {
						t.Fatalf("%s: got %v, want an error wrapping order.ErrInvalid", when, err)
					}
					if after := p.Stats(); !reflect.DeepEqual(before, after) || events != seen {
						t.Fatalf("%s: a refused order moved state:\nbefore %+v (%d events)\nafter  %+v (%d events)", when, before, seen, after, events)
					}
					// A batch holding it is refused whole, the valid order
					// ahead of it included, and the platform stays open.
					within(t, when+" (replay)", func() { _, err = p.Replay([]*order.Order{valid(667, rel), bad}) })
					if !errors.Is(err, order.ErrInvalid) {
						t.Fatalf("%s replay: got %v, want an error wrapping order.ErrInvalid", when, err)
					}
					if after := p.Stats(); !reflect.DeepEqual(before, after) || events != seen {
						t.Fatalf("%s replay: a refused batch moved state:\nbefore %+v (%d events)\nafter  %+v (%d events)", when, before, seen, after, events)
					}
					if st := p.Stats().Orders; st.Submitted != st.Served+st.Rejected+st.Pending {
						t.Fatalf("%s: ledger broken: %+v", when, st)
					}
				}
				admit := func(id int, rel float64) {
					t.Helper()
					var err error
					within(t, "valid submit", func() { err = p.Submit(valid(id, rel)) })
					if err != nil {
						t.Fatalf("valid order %d refused: %v", id, err)
					}
				}

				refuse("as the first order", 5)
				if st := p.Stats(); st.Clock != 0 || st.Orders != (OrderCounts{}) {
					t.Fatalf("refused first order started the run: %+v", st)
				}
				admit(1, 5)
				refuse("mid-stream", 25)
				admit(2, 300)

				var m *sim.Metrics
				within(t, "close", func() { m, err = p.Close() })
				if err != nil {
					t.Fatal(err)
				}
				if m.Total != 2 || m.Served != 2 || m.Rejected != 0 {
					t.Fatalf("valid orders around the hostile one: total %d served %d rejected %d, want 2/2/0", m.Total, m.Served, m.Rejected)
				}
			})
		}
	}
}

// within runs fn and fails the test if it has not returned in five seconds:
// a hang becomes a failure, not a stuck suite.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: still running after 5s — the platform hangs", what)
	}
}

// TestNewRefusesHostileFleet: the fleet is outside input too. A worker parked
// outside the network used to panic inside the worker index on a graph city
// (index out of range) and be accepted silently on a closed-form one; two
// workers sharing an ID were one worker to half of the index and two to the
// other; a non-finite FreeAt is idle never or always. New refuses each with
// an error wrapping order.ErrInvalidWorker before it builds anything, and the
// same network then serves an order with a valid fleet.
func TestNewRefusesHostileFleet(t *testing.T) {
	nets := map[string]roadnet.Network{
		"gridcity": roadnet.NewGridCity(10, 10, 100, 10),
		"graph":    roadnet.NewPerturbedGrid(12, 12, 150, 8, 0.3, 4),
	}
	good := func(id int) *order.Worker { return &order.Worker{ID: id, Loc: 0, Capacity: 4} }
	bad := func(corrupt func(w *order.Worker)) []*order.Worker {
		w := good(2)
		corrupt(w)
		return []*order.Worker{good(1), w, good(3)}
	}
	hostile := map[string][]*order.Worker{
		"location far past range":  bad(func(w *order.Worker) { w.Loc = 1 << 30 }),
		"location one past range":  bad(func(w *order.Worker) { w.Loc = 144 }),
		"location negative":        bad(func(w *order.Worker) { w.Loc = -5 }),
		"location invalid node":    bad(func(w *order.Worker) { w.Loc = geo.InvalidNode }),
		"lone worker out of range": {{ID: 1, Loc: 1 << 30, Capacity: 4}},
		"duplicate ID":             bad(func(w *order.Worker) { w.ID = 3 }),
		"free-at NaN":              bad(func(w *order.Worker) { w.FreeAt = math.NaN() }),
		"free-at +Inf":             bad(func(w *order.Worker) { w.FreeAt = math.Inf(1) }),
		"free-at -Inf":             bad(func(w *order.Worker) { w.FreeAt = math.Inf(-1) }),
		"ID zero":                  bad(func(w *order.Worker) { w.ID = 0 }),
		"no capacity":              bad(func(w *order.Worker) { w.Capacity = 0 }),
		"nil worker":               {good(1), nil},
	}
	for netName, net := range nets {
		for name, fleet := range hostile {
			t.Run(netName+"/"+name, func(t *testing.T) {
				var p *Platform
				var err error
				within(t, "New", func() { p, err = New(net, fleet, WithMeasuredTime(false)) })
				if !errors.Is(err, order.ErrInvalidWorker) || p != nil {
					t.Fatalf("New = (%v, %v), want no platform and an error wrapping order.ErrInvalidWorker", p, err)
				}
			})
		}
		t.Run(netName+"/valid fleet afterwards", func(t *testing.T) {
			p, err := New(net, []*order.Worker{good(1), good(2)}, WithMeasuredTime(false))
			if err != nil {
				t.Fatal(err)
			}
			direct := net.Cost(0, 5)
			o := &order.Order{ID: 1, Pickup: 0, Dropoff: 5, Riders: 1,
				Release: 5, Deadline: 5 + 2*direct, WaitLimit: 0.8 * direct, DirectCost: direct}
			within(t, "submit", func() { err = p.Submit(o) })
			if err != nil {
				t.Fatal(err)
			}
			var m *sim.Metrics
			within(t, "close", func() { m, err = p.Close() })
			if err != nil {
				t.Fatal(err)
			}
			if m.Total != 1 || m.Served != 1 {
				t.Fatalf("valid fleet: total %d served %d, want 1/1", m.Total, m.Served)
			}
		})
	}
}
