package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/roadnet"
	"watter/internal/sim"
)

// repeat is what one closed-loop replay of the workload measured.
type repeat struct {
	// host scales this replay's times to reference host speed, and slicesS
	// is the wall its host meter took, which wallS and cpuS leave out
	// (calib.go).
	host, slicesS  float64
	wallS, cpuS    float64
	mallocs, bytes uint64
	submit, tick   []time.Duration
	metrics        sim.Metrics
	stats          platform.Stats
	ops, failed    int
	failures       []string
}

func (r *repeat) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runRepeat replays stream inst (an instance, or warmUp) once through a
// fresh platform, one call at a time: every periodic check due at or
// before an order's release is fired with Tick, then the order is
// submitted — the sequence Stream.Replay produces, with the checks issued
// (and timed) by the client. Close then drains: the checks up to the
// largest deadline and the policy's Finish run inside it. Between the
// timed calls the host meter runs its slices (calib.go).
//
// With a tracer the policy is wrapped in the span decorator, a closed-form
// network in the call counter, and the event checker is installed as the
// platform's observer; the decisions are the same. Graph networks are not
// counted: the wrapper would hide their batched matrix path and measure a
// different program.
func runRepeat(w *workload, inst, shards int, tr *tracer) (*repeat, error) {
	stream := w.orders[inst]
	alg, err := w.algorithm(shards)
	if err != nil {
		return nil, err
	}
	var net roadnet.Network = w.city.Net
	var observer func(platform.Event)
	var algo sim.Algorithm = alg
	if tr != nil {
		algo = &tracedAlg{pooledAlg: alg, tr: tr}
		if _, closedForm := net.(*roadnet.GridCity); closedForm {
			net = &countingNet{Network: net, calls: &tr.costCalls}
		}
		tr.events = newEventCheck(len(stream))
		observer = tr.events.observe
	}
	p, err := w.newPlatform(inst, net, algo, shards, observer)
	if err != nil {
		return nil, err
	}

	dt := w.params.TickEvery
	orders := make([]order.Order, len(stream))
	for i, o := range stream {
		orders[i] = *o
	}
	r := &repeat{
		submit: make([]time.Duration, 0, len(orders)),
		tick:   make([]time.Duration, 0, int(orders[len(orders)-1].Release/dt)+1),
	}
	hm := newHostMeter(w.scale)
	tick := func() {
		id := tr.begin("platform.tick", len(r.tick))
		t0 := time.Now()
		_, err := p.Tick()
		end := time.Now()
		r.tick = append(r.tick, end.Sub(t0))
		tr.end(id)
		hm.pace(end)
		r.ops++
		if err != nil {
			r.fail("tick %d: %v", len(r.tick), err)
		}
	}

	// Two collections empty every sync.Pool (the first only retires its
	// contents to the victim cache), so each replay starts from the same
	// heap state and allocates its scratch afresh: bytes_per_order does not
	// depend on what an earlier replay left behind.
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	start := time.Now()
	tr.start(start)
	hm.start(start)

	nextTick := dt
	for i := range orders {
		o := &orders[i]
		for ; nextTick <= o.Release; nextTick += dt {
			tick()
		}
		id := tr.begin("platform.submit", o.ID)
		t0 := time.Now()
		err := p.Submit(o)
		end := time.Now()
		r.submit = append(r.submit, end.Sub(t0))
		tr.end(id)
		hm.pace(end)
		r.ops++
		if err != nil {
			r.fail("submit order %d: %v", o.ID, err)
		}
	}
	id := tr.begin("platform.close", 0)
	m, err := p.Close()
	tr.end(id)
	r.ops++

	wall := time.Since(start)
	r.host, r.slicesS = hm.factor(), hm.spent().Seconds()
	r.wallS = wall.Seconds() - r.slicesS
	r.cpuS = cpuSeconds() - cpu0 - r.slicesS // a slice is pure compute on the calling thread
	tr.stop(wall - hm.spent())
	runtime.ReadMemStats(&m1)
	r.mallocs = m1.Mallocs - m0.Mallocs
	r.bytes = m1.TotalAlloc - m0.TotalAlloc

	if err != nil {
		r.fail("close: %v", err)
		return r, nil
	}
	r.metrics = *m
	r.metrics.DecisionSeconds = 0
	r.stats = p.Stats()
	if c := r.stats.Orders; c.Submitted != len(orders) || c.Submitted != c.Served+c.Rejected || c.Pending != 0 {
		r.fail("ledger after close: %+v for %d orders", c, len(orders))
	}
	if tr != nil {
		for _, f := range tr.events.finish() {
			r.fail("%s", f)
		}
	}
	return r, nil
}

// checkSame counts one failed check when a repeat's decisions differ from
// the reference (the same stream's first replay): the platform is
// deterministic, so sim.Metrics must agree bit for bit.
func (r *repeat) checkSame(ref *repeat, what string) {
	if r.metrics != ref.metrics {
		r.fail("metrics differ from %s:\n got %+v\nwant %+v", what, r.metrics, ref.metrics)
	}
}
