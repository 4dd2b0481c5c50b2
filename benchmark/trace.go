package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/roadnet"
)

// span is one timed interval of the traced repeat. Start and End are
// nanoseconds since the repeat began; Parent indexes the enclosing span
// (-1 for the harness's own roots). Spans of one operation share Op: the
// order ID for a submit, the tick index for a periodic check.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced repeat's spans in memory. All methods are
// no-ops on a nil tracer, so the untraced path carries no branches of its
// own. The platform is fed from one goroutine and the policy hooks run on
// it, so the open-span stack needs no lock.
type tracer struct {
	t0        time.Time
	spans     []span
	open      []int // stack of open span indexes
	wallNs    int64
	costCalls uint64
	events    *eventCheck
}

func (t *tracer) start(t0 time.Time) {
	if t != nil {
		t.t0 = t0
	}
}

// stop records the replay's wall, the host meter's slices left out: they
// run between the root spans, so a span's own times need no correction.
func (t *tracer) stop(wall time.Duration) {
	if t != nil {
		t.wallNs = int64(wall)
	}
}

// begin opens a span under the innermost open one. A child inherits its
// root's operation ID.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		op = t.spans[parent].Op
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent})
	t.open = append(t.open, id)
	t.spans[id].Start = int64(time.Since(t.t0))
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, for every span called name, its duration minus the
// part its direct children cover. Children of one parent never overlap
// (one goroutine), so the cover is the sum of their durations.
func (t *tracer) selfTimes(name string) []time.Duration {
	cover := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			cover[s.Parent] += s.End - s.Start
		}
	}
	var out []time.Duration
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start-cover[i]))
		}
	}
	return out
}

// durations returns the duration of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// checkNesting verifies the structure self times rely on: every span
// closed, every child inside its parent.
func (t *tracer) checkNesting() []string {
	var bad []string
	for i, s := range t.spans {
		switch {
		case s.End < s.Start:
			bad = append(bad, fmt.Sprintf("span %d %s ends before it starts", i, s.Name))
		case s.Parent >= 0 && (s.Start < t.spans[s.Parent].Start || s.End > t.spans[s.Parent].End):
			bad = append(bad, fmt.Sprintf("span %d %s leaves its parent %s", i, s.Name, t.spans[s.Parent].Name))
		}
		if len(bad) >= 10 {
			break
		}
	}
	if len(t.open) != 0 {
		bad = append(bad, fmt.Sprintf("%d spans left open", len(t.open)))
	}
	return bad
}

// writeSpans dumps the trace as one JSON document.
func (t *tracer) writeSpans(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		WallNs   int64  `json:"wall_ns"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.wallNs, t.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedAlg wraps the dispatch policy's three per-event hooks in spans.
// Everything else — Init, and the Pool/ShardEngine/Set* hooks platform.New
// and Platform.Stats look for — is forwarded by the embedded interface.
type tracedAlg struct {
	pooledAlg
	tr *tracer
}

func (a *tracedAlg) OnOrder(o *order.Order, now float64) {
	id := a.tr.begin("core.on_order", o.ID)
	a.pooledAlg.OnOrder(o, now)
	a.tr.end(id)
}

func (a *tracedAlg) OnTick(now float64) {
	id := a.tr.begin("core.on_tick", 0)
	a.pooledAlg.OnTick(now)
	a.tr.end(id)
}

func (a *tracedAlg) Finish(now float64) {
	id := a.tr.begin("core.finish", 0)
	a.pooledAlg.Finish(now)
	a.tr.end(id)
}

// countingNet counts point-to-point cost queries. It is installed only on
// closed-form cities, in the traced K=1 replay: GridCity has no batched
// path to hide, and one goroutine means a plain counter.
type countingNet struct {
	roadnet.Network
	calls *uint64
}

func (n *countingNet) Cost(from, to geo.NodeID) float64 {
	//det:specwrite installed only under the traced K=1 replay of a closed-form city (runRepeat, K=1), where no speculation goroutine exists; the count never feeds a decision
	*n.calls++
	return n.Network.Cost(from, to)
}

// eventCheck is the traced repeat's observer: it counts events and checks
// each order's life cycle and each service record's deadline from the
// event stream alone.
type eventCheck struct {
	admitted map[int]*order.Order
	resolved map[int]bool
	want     int
	events   int
	failures []string
}

func newEventCheck(orders int) *eventCheck {
	return &eventCheck{admitted: make(map[int]*order.Order, orders), resolved: make(map[int]bool, orders), want: orders}
}

func (c *eventCheck) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// resolve marks the order's single outcome and returns the admitted order.
func (c *eventCheck) resolve(id int, how string) *order.Order {
	o := c.admitted[id]
	switch {
	case o == nil:
		c.failf("order %d %s before it was admitted", id, how)
	case c.resolved[id]:
		c.failf("order %d %s after it was already resolved", id, how)
	}
	c.resolved[id] = true
	return o
}

func (c *eventCheck) observe(ev platform.Event) {
	c.events++
	switch e := ev.(type) {
	case platform.OrderAdmitted:
		if c.admitted[e.Order.ID] != nil {
			c.failf("order %d admitted twice", e.Order.ID)
		}
		c.admitted[e.Order.ID] = e.Order
	case platform.OrderRejected:
		c.resolve(e.Order.ID, "rejected")
	case platform.GroupDispatched:
		for _, rec := range e.Orders {
			o := c.resolve(rec.OrderID, "dispatched")
			if o == nil {
				continue
			}
			if rec.Response < 0 {
				c.failf("order %d has response %v < 0", o.ID, rec.Response)
			}
			// Detour is the drop-off's offset from the route start minus
			// DirectCost, so this sum is the drop-off time.
			if drop := o.Release + rec.Response + e.Approach + o.DirectCost + rec.Detour; drop > o.Deadline+1e-6 {
				c.failf("order %d dropped off at %v, after its deadline %v", o.ID, drop, o.Deadline)
			}
		}
	}
}

// finish returns every failure seen, plus one when an order was left
// without an outcome.
func (c *eventCheck) finish() []string {
	if len(c.admitted) != c.want || len(c.resolved) != c.want {
		c.failf("%d orders admitted and %d resolved, want %d of each", len(c.admitted), len(c.resolved), c.want)
	}
	return c.failures
}
