package platform

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
	"watter/internal/sim"
)

// The operations FuzzPlatformOps decodes, one per byte pair (opcode, arg).
// Opcodes 5-7 are no-ops, kept so the committed seeds decode to the same
// scripts.
const (
	opSubmit = iota
	opSubmitInvalid
	opSubmitNil
	opSubmitOutOfOrder
	opTick
	_
	_
	_
	opAbort
	opClose
	opStats
	opReplay
	numOps
)

// maxOps bounds one script, so an input costs at most a few milliseconds.
const maxOps = 64

// FuzzPlatformOps drives one platform through an operation script decoded
// from bytes — Submit of a valid, invalid, nil or out-of-order order, Tick,
// Abort, Close, Stats and Replay, in any order — and checks after every
// step that it never panics, that the ledger holds (Submitted is the number
// of orders accepted, and Served + Rejected + Pending with Pending >= 0 and
// 0 after a drain), that neither the clock nor the event times go back,
// that a refused order moves no state, and that after Close or Abort
// Submit, Tick and Replay return ErrClosed while every Close returns the
// first result's pointer and error. The named seeds in
// testdata/fuzz run under plain `go test`.
func FuzzPlatformOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2*maxOps {
			script = script[:2*maxOps]
		}
		net := roadnet.NewGridCity(10, 10, 100, 10)
		lastWhen := math.Inf(-1)
		p, err := New(net, testFleet(net, 3), WithMeasuredTime(false), WithObserver(func(ev Event) {
			if ev.When() < lastWhen {
				t.Fatalf("event %T at %v after one at %v", ev, ev.When(), lastWhen)
			}
			lastWhen = ev.When()
		}))
		if err != nil {
			t.Fatal(err)
		}

		var (
			accepted int  // orders the platform took
			closed   bool // the lifecycle the script drove
			first    *sim.Metrics
			firstErr error
			nextID   int
		)
		clock := p.Clock()
		valid := func(arg byte, rel float64) *order.Order {
			nextID++
			pu := geo.NodeID(int(arg) % 100)
			do := geo.NodeID((int(arg)*37 + 11) % 100)
			if do == pu {
				do = (do + 1) % 100
			}
			direct := net.Cost(pu, do)
			return &order.Order{ID: nextID, Pickup: pu, Dropoff: do, Riders: 1 + int(arg)%2,
				Release: rel, Deadline: rel + (1.2+float64(arg%4)/2)*direct, WaitLimit: 0.8 * direct, DirectCost: direct}
		}
		// gate is what Submit, Tick and Replay must return in the current
		// lifecycle state before they do anything, nil when they may act.
		gate := func() error {
			if closed {
				return ErrClosed
			}
			return nil
		}
		// unmoved fails unless a refused call left the platform as it was.
		unmoved := func(what string, err error, before Stats) {
			t.Helper()
			if err == nil {
				t.Fatalf("%s accepted", what)
			}
			if after := p.Stats(); !reflect.DeepEqual(before, after) {
				t.Fatalf("%s (%v) moved state:\nbefore %+v\nafter  %+v", what, err, before, after)
			}
		}
		shut := func(m *sim.Metrics, err error) {
			closed, first, firstErr = true, m, err
		}

		for step := 0; len(script) >= 2; step++ {
			op, arg := int(script[0])%numOps, script[1]
			script = script[2:]
			before := p.Stats()
			switch op {
			case opSubmit, opSubmitInvalid, opSubmitNil, opSubmitOutOfOrder:
				o := valid(arg, clock+float64(arg%64))
				switch op {
				case opSubmitInvalid:
					switch arg % 4 {
					case 0:
						o.Deadline = math.NaN()
					case 1:
						o.Pickup = 1 << 20
					case 2:
						o.Riders = 0
					case 3:
						o.Deadline = o.Release - 1
					}
				case opSubmitNil:
					o = nil
				case opSubmitOutOfOrder:
					if clock <= 0 {
						continue // nothing delivered yet: no past to fall behind
					}
					o.Release = clock - 1 - float64(arg%16)
					o.Deadline = o.Release + 2*o.DirectCost
				}
				err := p.Submit(o)
				switch want := gate(); {
				case want != nil:
					if !errors.Is(err, want) {
						t.Fatalf("step %d: submit on a %v platform: got %v", step, want, err)
					}
				case op == opSubmit:
					if err != nil {
						t.Fatalf("step %d: valid order %+v refused: %v", step, *o, err)
					}
					accepted++
				case op == opSubmitOutOfOrder:
					unmoved("out-of-order order", err, before)
				default:
					if !errors.Is(err, order.ErrInvalid) {
						t.Fatalf("step %d: invalid order: got %v, want an error wrapping order.ErrInvalid", step, err)
					}
					unmoved("invalid order", err, before)
				}
			case opTick:
				tk, err := p.Tick()
				if want := gate(); want != nil {
					if !errors.Is(err, want) {
						t.Fatalf("step %d: tick on a %v platform: got %v", step, want, err)
					}
				} else if err != nil || tk < clock || tk != p.Clock() {
					t.Fatalf("step %d: tick = %v, %v with the clock at %v, now %v", step, tk, err, clock, p.Clock())
				}
			case opAbort:
				p.Abort()
				if !closed {
					shut(nil, ErrAborted)
				}
			case opClose:
				m, err := p.Close()
				if !closed {
					if err != nil || m == nil {
						t.Fatalf("step %d: first close = %v, %v", step, m, err)
					}
					if pending := p.Stats().Orders.Pending; pending != 0 {
						t.Fatalf("step %d: %d orders still pending after the drain", step, pending)
					}
					shut(m, err)
				} else if m != first || err != firstErr {
					t.Fatalf("step %d: close = (%p, %v), want the first (%p, %v)", step, m, err, first, firstErr)
				}
			case opStats:
				_ = p.Stats() // checked below, after every step
			case opReplay:
				batch := make([]*order.Order, 1+int(arg)%3)
				for i := range batch {
					batch[i] = valid(arg+byte(i), clock+float64((int(arg)*(i+3))%50))
				}
				m, err := p.Replay(batch)
				if want := gate(); want != nil {
					if !errors.Is(err, want) || m != nil {
						t.Fatalf("step %d: replay on a %v platform: got %v, %v", step, want, m, err)
					}
				} else {
					if err != nil {
						t.Fatalf("step %d: replay of a valid batch: %v", step, err)
					}
					accepted += len(batch)
					shut(m, err)
				}
			}

			st := p.Stats()
			if o := st.Orders; o.Submitted != accepted || o.Pending < 0 || o.Submitted != o.Served+o.Rejected+o.Pending {
				t.Fatalf("step %d (op %d): ledger %+v with %d orders accepted", step, op, o, accepted)
			}
			if closed && first != nil && st.Orders.Pending != 0 {
				t.Fatalf("step %d: %d orders pending on a drained platform", step, st.Orders.Pending)
			}
			if st.Clock < clock || st.Clock != p.Clock() {
				t.Fatalf("step %d (op %d): clock went from %v to %v", step, op, clock, st.Clock)
			}
			if st.Closed != closed {
				t.Fatalf("step %d (op %d): Stats says closed=%v, the script says %v", step, op, st.Closed, closed)
			}
			clock = st.Clock
		}

		if !closed {
			m, err := p.Close()
			if err != nil {
				t.Fatal(err)
			}
			shut(m, err)
		}
		if err := p.Submit(valid(0, clock+1)); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit after close: %v", err)
		}
		if _, err := p.Tick(); !errors.Is(err, ErrClosed) {
			t.Fatalf("tick after close: %v", err)
		}
		if _, err := p.Replay(nil); !errors.Is(err, ErrClosed) {
			t.Fatalf("replay after close: %v", err)
		}
		if m, err := p.Close(); m != first || err != firstErr {
			t.Fatalf("close = (%p, %v), want the first (%p, %v)", m, err, first, firstErr)
		}
	})
}
