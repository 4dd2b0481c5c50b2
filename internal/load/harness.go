package load

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"

	"watter/internal/core"
	"watter/internal/dataset"
	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/pool"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// Config is one open-loop load run: a city, a fleet and an arrival
// process. Capacity, τ and η are the paper's
// defaults (four seats, dataset.DefaultTauScale, dataset.DefaultEta).
type Config struct {
	// City is the demand/network profile.
	City dataset.Profile
	// Workers is the fleet size.
	Workers int
	// Seed drives endpoint sampling and worker placement; the arrival
	// schedule has its own seed inside Arrival.
	Seed int64
	// Arrival is the arrival process driving Submit.
	Arrival ArrivalSpec
	// Horizon is the arrival window in virtual seconds; the run itself
	// drains past it until every admitted order is resolved.
	Horizon float64
	// Tick is the periodic-check interval Δt.
	Tick float64
}

// Defaults fills zero fields from the harness's one table of defaults,
// which watterload's flags also default to: the CDC profile, 60 workers,
// seed 1, a Poisson process at 1 order/s with arrival seed 1 and a 300 s
// arrival window at Δt = 10 s. A zero seed therefore reads as 1.
func (c Config) Defaults() Config {
	if c.City.Name == "" {
		c.City = dataset.CDC()
	}
	if c.Workers == 0 {
		c.Workers = 60
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Arrival.Process == "" {
		c.Arrival.Process = Poisson
	}
	if c.Arrival.Rate == 0 {
		c.Arrival.Rate = 1
	}
	if c.Arrival.Seed == 0 {
		c.Arrival.Seed = 1
	}
	if c.Horizon == 0 {
		c.Horizon = 300
	}
	if c.Tick == 0 {
		c.Tick = 10
	}
	return c
}

// Result is one run's measurements. Every field is a deterministic
// function of the Config: latencies are virtual-clock differences, and the
// two hashes
// fingerprint the generated order stream and the full decision journal so
// bit-identity across runs is checkable by comparing two uint64s.
type Result struct {
	Process Process
	Rate    float64
	Horizon float64

	// Scheduled is the arrival-schedule length; Submitted is how many
	// orders actually entered the platform (endpoint sampling can drop a
	// handful of degenerate pickup==dropoff draws).
	Scheduled int
	Submitted int
	Served    int
	Rejected  int
	Pending   int
	Ticks     int

	// SustainedRate is Submitted / Horizon: the arrival rate the platform
	// actually absorbed, in orders per second of virtual time.
	SustainedRate float64

	// Latency is the admit→dispatch histogram (virtual seconds from an
	// order's release to the tick that dispatched it). Rejections are
	// counted separately — a rejection is not a served order.
	Latency Hist
	P50     float64
	P99     float64
	P999    float64
	Mean    float64

	// Slip is the decision-timeliness histogram over every decision,
	// dispatch or reject: max(0, decisionTime - release - η). The pooling
	// framework waits inside the watching window η on purpose (that is the
	// paper), so raw latency can never be compared against Δt; what the
	// platform owes each order is a decision within η plus at most one
	// periodic check. Slip measures how far past that promise decisions
	// land; with the harness's τ and η it never exceeds one Δt (DESIGN.md
	// §14), so it is reported, not searched on.
	Slip Hist
	// SlipP99 is Slip.Quantile(0.99), the headline timeliness number.
	SlipP99 float64
	// ServiceRate is Served/Submitted, what the rate search holds to one
	// half: the platform degrades under overload by rejecting.
	ServiceRate float64

	// StreamHash fingerprints the submitted order stream (IDs, endpoints,
	// releases, deadlines); JournalHash fingerprints the typed event
	// journal (kinds, times, IDs, costs). Two runs of the same Config must
	// agree on both bit-for-bit.
	StreamHash  uint64
	JournalHash uint64

	Metrics sim.Metrics
}

// Retime rewrites a generated workload onto an arrival schedule: order i
// releases at times[i], its deadline moves to times[i] + tauScale*direct,
// and its wait limit (a function of direct cost only) is untouched. Orders
// beyond the schedule (or times beyond the workload) are dropped. Run
// puts each generated workload onto its arrival schedule with it.
func Retime(orders []*order.Order, times []float64, tauScale float64) []*order.Order {
	n := len(orders)
	if len(times) < n {
		n = len(times)
	}
	out := orders[:n]
	for i, o := range out {
		o.Release = times[i]
		o.Deadline = times[i] + float64(tauScale*o.DirectCost)
	}
	return out
}

// journal hashes the event stream with FNV-1a over a canonical binary
// encoding. Only deterministic payload fields are folded in (never
// DecisionSeconds, the one documented wall-clock metric).
type journal struct {
	h   hash.Hash64
	buf [8]byte
}

func newJournal() *journal { return &journal{h: fnv.New64a()} }

func (j *journal) u64(v uint64) {
	binary.LittleEndian.PutUint64(j.buf[:], v)
	j.h.Write(j.buf[:])
}
func (j *journal) f64(v float64) { j.u64(math.Float64bits(v)) }
func (j *journal) tag(b byte)    { j.h.Write([]byte{b}) }

func (j *journal) event(ev platform.Event) {
	switch e := ev.(type) {
	case platform.OrderAdmitted:
		j.tag(1)
		j.f64(e.Time)
		j.u64(uint64(e.Order.ID))
	case platform.GroupDispatched:
		j.tag(2)
		j.f64(e.Time)
		j.u64(uint64(e.WorkerID))
		j.f64(e.Approach)
		j.f64(e.RouteCost)
		for _, r := range e.Orders {
			j.u64(uint64(r.OrderID))
			j.f64(r.Response)
			j.f64(r.Detour)
		}
	case platform.OrderRejected:
		j.tag(3)
		j.f64(e.Time)
		j.u64(uint64(e.Order.ID))
		j.f64(e.Penalty)
	case platform.TickCompleted:
		j.tag(4)
		j.f64(e.Time)
		j.u64(uint64(e.Metrics.Served))
		j.u64(uint64(e.Metrics.Rejected))
	}
}

// Run executes one open-loop load run and returns its measurements. A
// negative fleet is refused before anything is built: it would panic
// sizing the fleet.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.Defaults()
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("load: Workers = %d is negative", cfg.Workers)
	}
	times, err := cfg.Arrival.Times(cfg.Horizon)
	if err != nil {
		return nil, err
	}
	city := cfg.City.Build()
	orders := city.Orders(dataset.WorkloadConfig{Orders: len(times), Seed: cfg.Seed})
	orders = Retime(orders, times, dataset.DefaultTauScale)
	workers := city.Workers(cfg.Workers, sim.DefaultConfig().Capacity, cfg.Seed+1000)

	res := &Result{
		Process:   cfg.Arrival.Process,
		Rate:      cfg.Arrival.Rate,
		Horizon:   cfg.Horizon,
		Scheduled: len(times),
	}

	// Stream fingerprint: what the generator fed the platform.
	sh := newJournal()
	for _, o := range orders {
		sh.u64(uint64(o.ID))
		sh.u64(uint64(o.Pickup))
		sh.u64(uint64(o.Dropoff))
		sh.f64(o.Release)
		sh.f64(o.Deadline)
	}
	res.StreamHash = sh.h.Sum64()

	// waitLimit lets the observer turn a dispatch/reject time into slip
	// without carrying the order around; IDs are unique per workload.
	waitLimit := make(map[int]float64, len(orders))
	for _, o := range orders {
		waitLimit[o.ID] = o.WaitLimit
	}
	jh := newJournal()
	slipOf := func(id int, response float64) float64 {
		s := response - waitLimit[id]
		if s < 0 {
			return 0
		}
		return s
	}
	observe := func(ev platform.Event) {
		jh.event(ev)
		switch e := ev.(type) {
		case platform.GroupDispatched:
			for _, r := range e.Orders {
				res.Latency.Record(r.Response)
				res.Slip.Record(slipOf(r.OrderID, r.Response))
			}
		case platform.OrderRejected:
			res.Slip.Record(slipOf(e.Order.ID, e.Time-e.Order.Release))
		case platform.TickCompleted:
			res.Ticks++
		}
	}

	p, err := platform.New(city.Net, workers,
		platform.WithTick(cfg.Tick),
		platform.WithMeasuredTime(false),
		platform.WithAlgorithm(core.New(strategy.Online{}, pool.DefaultOptions())),
		platform.WithObserver(observe),
	)
	if err != nil {
		return nil, err
	}
	for _, o := range orders {
		if err := p.Submit(o); err != nil {
			p.Abort()
			return nil, fmt.Errorf("load: submit order %d at t=%.1f: %w", o.ID, o.Release, err)
		}
	}
	m, err := p.Close()
	if err != nil {
		return nil, err
	}

	res.Submitted = m.Total
	res.Served = m.Served
	res.Rejected = m.Rejected
	res.Pending = m.Total - m.Served - m.Rejected
	res.SustainedRate = float64(m.Total) / cfg.Horizon
	res.P50 = res.Latency.Quantile(0.50)
	res.P99 = res.Latency.Quantile(0.99)
	res.P999 = res.Latency.Quantile(0.999)
	res.Mean = res.Latency.Mean()
	res.SlipP99 = res.Slip.Quantile(0.99)
	if res.Submitted > 0 {
		res.ServiceRate = float64(res.Served) / float64(res.Submitted)
	}
	res.JournalHash = jh.h.Sum64()
	res.Metrics = *m
	return res, nil
}
