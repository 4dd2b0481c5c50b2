package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"watter/internal/geo"
	"watter/internal/order"
)

// TestStreamEmptyStream pins the empty-workload semantics the batch
// adapter inherits: no orders means no ticks at all and Finish at time
// zero.
func TestStreamEmptyStream(t *testing.T) {
	env, _ := newTestEnv(1)
	rec := &recorder{}
	m := Run(env, rec, nil, RunOptions{TickEvery: 10})
	if len(rec.ticks) != 0 {
		t.Fatalf("ticks on an empty stream: %v", rec.ticks)
	}
	if rec.finish != 0 || rec.inits != 1 {
		t.Fatalf("finish=%v inits=%d", rec.finish, rec.inits)
	}
	if m.Total != 0 || m.Served != 0 || m.Rejected != 0 {
		t.Fatalf("metrics = %+v", m)
	}

}

// TestStreamTickBoundaryRelease pins the tie-break an order released
// exactly on a tick boundary gets: the tick fires first, then the order
// is delivered at the same timestamp.
func TestStreamTickBoundaryRelease(t *testing.T) {
	env, net := newTestEnv(1)
	rec := &recorder{}
	st, err := NewStream(env, rec, RunOptions{TickEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Submit(mkOrder(net, 1, 10)); err != nil {
		t.Fatal(err)
	}
	if len(rec.ticks) != 1 || rec.ticks[0] != 10 {
		t.Fatalf("ticks before boundary order = %v, want [10]", rec.ticks)
	}
	if len(rec.orders) != 1 || rec.orders[0] != 10 {
		t.Fatalf("order deliveries = %v", rec.orders)
	}
	if _, err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Same cadence through the batch adapter.
	env2, _ := newTestEnv(1)
	rec2 := &recorder{}
	Run(env2, rec2, []*order.Order{mkOrder(net, 2, 10)}, RunOptions{TickEvery: 10})
	if len(rec2.ticks) == 0 || rec2.ticks[0] != 10 || rec2.orders[0] != 10 {
		t.Fatalf("adapter cadence: ticks=%v orders=%v", rec2.ticks, rec2.orders)
	}
}

// TestStreamOrderingAndLifecycle covers the live-ingestion error surface:
// out-of-order submissions, submissions behind a manually advanced clock,
// and use after Close.
func TestStreamOrderingAndLifecycle(t *testing.T) {
	env, net := newTestEnv(1)
	st, err := NewStream(env, &recorder{}, RunOptions{TickEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Submit(mkOrder(net, 1, 25)); err != nil {
		t.Fatal(err)
	}
	if err := st.Submit(mkOrder(net, 2, 12)); err == nil ||
		!strings.Contains(err.Error(), "release order") {
		t.Fatalf("out-of-order submit: %v", err)
	}
	if tk, err := st.Tick(); err != nil || tk != 30 {
		t.Fatalf("manual tick = %v, %v (want 30)", tk, err)
	}
	if err := st.Submit(mkOrder(net, 3, 28)); err == nil {
		t.Fatal("submit behind the advanced clock must fail")
	}
	if err := st.Submit(mkOrder(net, 4, 30)); err != nil {
		t.Fatalf("submit at the advanced clock: %v", err)
	}
	if _, err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Submit(mkOrder(net, 5, 99)); err != ErrStreamClosed {
		t.Fatalf("submit after close: %v", err)
	}
	if _, err := st.Tick(); err != ErrStreamClosed {
		t.Fatalf("tick after close: %v", err)
	}
	if _, err := st.Close(); err != ErrStreamClosed {
		t.Fatalf("double close: %v", err)
	}
}

// TestStreamRefusesInadmissibleOrders pins the stream's admission gate, the
// only one (the platform and sim.Run both meet it through Submit or
// Replay): a non-finite field or a node outside the network is refused
// with an error wrapping order.ErrInvalid, and the refusal leaves the run
// unstarted — no Init, no tick, no clock, no metrics.
func TestStreamRefusesInadmissibleOrders(t *testing.T) {
	env, net := newTestEnv(1)
	rec := &recorder{}
	st, err := NewStream(env, rec, RunOptions{TickEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(*order.Order){
		"release +Inf":       func(o *order.Order) { o.Release, o.Deadline = math.Inf(1), math.Inf(1) },
		"deadline NaN":       func(o *order.Order) { o.Deadline = math.NaN() },
		"pickup past range":  func(o *order.Order) { o.Pickup = geo.NodeID(net.NumNodes()) },
		"dropoff negative":   func(o *order.Order) { o.Dropoff = -1 },
		"riders zero":        func(o *order.Order) { o.Riders = 0 },
		"deadline < release": func(o *order.Order) { o.Deadline = o.Release - 1 },
	} {
		o := mkOrder(net, 9, 25)
		corrupt(o)
		if err := st.Submit(o); !errors.Is(err, order.ErrInvalid) {
			t.Fatalf("%s: got %v, want an error wrapping order.ErrInvalid", name, err)
		}
		// Replay checks the whole batch first: the valid order ahead of
		// the bad one is not delivered either.
		if err := st.Replay([]*order.Order{mkOrder(net, 8, 5), o}); !errors.Is(err, order.ErrInvalid) {
			t.Fatalf("%s: replay got %v, want an error wrapping order.ErrInvalid", name, err)
		}
		if rec.inits != 0 || len(rec.ticks) != 0 || len(rec.orders) != 0 || st.Clock() != 0 || env.Metrics.Total != 0 {
			t.Fatalf("%s: a refused order moved state: inits %d ticks %v orders %v clock %v total %d",
				name, rec.inits, rec.ticks, rec.orders, st.Clock(), env.Metrics.Total)
		}
	}
	if err := st.Replay([]*order.Order{mkOrder(net, 8, 5), nil}); !errors.Is(err, order.ErrInvalid) || rec.inits != 0 {
		t.Fatalf("nil order in a replay: got %v (inits %d), want an error wrapping order.ErrInvalid and no start", err, rec.inits)
	}
	if err := st.Submit(mkOrder(net, 1, 25)); err != nil {
		t.Fatalf("valid order after the refusals: %v", err)
	}
	if len(rec.ticks) != 2 || env.Metrics.Total != 1 {
		t.Fatalf("valid order after the refusals: ticks %v total %d", rec.ticks, env.Metrics.Total)
	}
}

// TestStreamNegativeRelease pins a legacy admission the redesign must
// not lose: the batch runner simulated orders released before t=0 (the
// clock simply started there), so the monotonicity check only applies
// once an event has actually been delivered.
func TestStreamNegativeRelease(t *testing.T) {
	env, net := newTestEnv(1)
	o := mkOrder(net, 1, 0)
	o.Release, o.Deadline = -5, o.Deadline-5
	rec := &recorder{}
	m := Run(env, rec, []*order.Order{o}, RunOptions{TickEvery: 10})
	if len(rec.orders) != 1 || rec.orders[0] != -5 {
		t.Fatalf("order deliveries = %v", rec.orders)
	}
	if m.Total != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

// TestRunOptionsValidate pins the validation that replaced the silent
// TickEvery coercion: zero, negative and non-finite values are errors,
// and DefaultRunOptions is the blessed default.
func TestRunOptionsValidate(t *testing.T) {
	if err := DefaultRunOptions().Validate(); err != nil {
		t.Fatalf("blessed defaults invalid: %v", err)
	}
	for _, bad := range []RunOptions{
		{},              // zero TickEvery, previously coerced to 10
		{TickEvery: -1}, // negative
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v must not validate", bad)
		}
	}
	env, _ := newTestEnv(1)
	if _, err := NewStream(env, &recorder{}, RunOptions{}); err == nil {
		t.Fatal("NewStream must reject unvalidated options")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Run must panic on invalid options instead of silently coercing")
		}
	}()
	env2, _ := newTestEnv(1)
	Run(env2, &recorder{}, nil, RunOptions{})
}

// TestConfigValidate pins the platform-parameter validation that replaced
// NewEnv's silent defaulting.
func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("blessed defaults invalid: %v", err)
	}
	if err := (Config{}).Validate(); err == nil {
		t.Fatal("zero-value config (previously coerced field by field) must not validate")
	}
	for name, mutate := range map[string]func(*Config){
		"zero grid":     func(c *Config) { c.GridN = 0 },
		"zero capacity": func(c *Config) { c.Capacity = 0 },
	} {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("%s must not validate", name)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewEnv must panic on invalid config")
		}
	}()
	newTestEnvBad()
}

func newTestEnvBad() {
	env, _ := newTestEnv(1)
	NewEnv(env.Net, nil, Config{})
}
