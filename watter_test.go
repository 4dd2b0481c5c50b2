package watter

import (
	"errors"
	"sort"
	"testing"

	"watter/internal/dataset"
	"watter/internal/exp"
)

func TestFacadeEndToEnd(t *testing.T) {
	city := CityXIA().Build()
	orders := city.Orders(WorkloadConfig{Orders: 300, Seed: 1})
	workers := city.Workers(30, 4, 2)
	p, err := New(city.Net, workers, WithMeasuredTime(false))
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Replay(orders)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served+m.Rejected != len(orders) {
		t.Fatalf("accounting: %+v", m)
	}
	if m.ServiceRate() <= 0 {
		t.Fatal("nothing served through the facade")
	}
}

// TestFacadePlatform exercises the event-driven surface end to end: a
// validated constructor, live events, and replayed metrics identical to
// submitting the same workload one order at a time.
func TestFacadePlatform(t *testing.T) {
	city := CityXIA().Build()
	orders := city.Orders(WorkloadConfig{Orders: 300, Seed: 1})
	mkFleet := func() []*Worker { return city.Workers(30, 4, 2) }

	if _, err := New(city.Net, mkFleet(), WithTick(0)); err == nil {
		t.Fatal("invalid tick must be rejected, not coerced")
	}
	var dispatched, rejected int
	p, err := New(city.Net, mkFleet(), WithMeasuredTime(false), WithObserver(func(ev Event) {
		switch e := ev.(type) {
		case GroupDispatched:
			dispatched += e.Size()
		case OrderRejected:
			rejected++
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := p.Replay(orders)
	if err != nil {
		t.Fatal(err)
	}
	if dispatched != streamed.Served || rejected != streamed.Rejected {
		t.Fatalf("events %d/%d vs metrics %+v", dispatched, rejected, streamed)
	}

	live, err := New(city.Net, mkFleet(), WithMeasuredTime(false))
	if err != nil {
		t.Fatal(err)
	}
	sorted := make([]*Order, len(orders))
	for i, o := range orders {
		c := *o
		sorted[i] = &c
	}
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Release < sorted[j].Release })
	for _, o := range sorted {
		if err := live.Submit(o); err != nil {
			t.Fatal(err)
		}
	}
	submitted, err := live.Close()
	if err != nil {
		t.Fatal(err)
	}
	if *submitted != *streamed {
		t.Fatalf("facade replay diverged from one-at-a-time submission:\nsubmitted: %+v\nreplayed:  %+v", *submitted, *streamed)
	}
}

func TestFacadeStrategies(t *testing.T) {
	for _, alg := range []Algorithm{NewOnline(), NewTimeout(), NewConstantThreshold(90), NewGDP(), NewGAS()} {
		if alg == nil || alg.Name() == "" {
			t.Fatalf("constructor returned unusable algorithm: %v", alg)
		}
	}
}

// TestNewTimeoutFollowsTick: WATTER-timeout's only Δt is the platform's, so
// NewTimeout under WithTick(5) is the harness's WATTER-timeout at
// TickEvery = 5, bit for bit.
func TestNewTimeoutFollowsTick(t *testing.T) {
	p := DefaultExperimentParams(CityCDC())
	p.Orders, p.Workers, p.TickEvery = 600, 50, 5
	r := exp.NewRunner()
	s, err := r.Setup(p)
	if err != nil {
		t.Fatal(err)
	}
	harness, err := r.Build("WATTER-timeout", p)
	if err != nil {
		t.Fatal(err)
	}
	var metrics [2]*Metrics
	for i, alg := range []Algorithm{harness, NewTimeout()} {
		plat, err := s.Platform(alg, false)
		if err != nil {
			t.Fatal(err)
		}
		if metrics[i], err = plat.Replay(s.Orders); err != nil {
			t.Fatal(err)
		}
	}
	if *metrics[0] != *metrics[1] {
		t.Fatalf("NewTimeout at Δt = 5 diverged from the harness's WATTER-timeout:\nharness:    %+v\nNewTimeout: %+v", *metrics[0], *metrics[1])
	}
	if metrics[0].Served == 0 || metrics[0].Rejected == 0 {
		t.Fatalf("degenerate run: %+v", *metrics[0])
	}
}

func TestFacadeTrainExpect(t *testing.T) {
	p := DefaultExperimentParams(CityXIA())
	p.Orders = 300
	p.Workers = 30
	p.Train.HistoricalOrders = 200
	p.Train.TrainSteps = 50
	alg, err := TrainExpect(p)
	if err != nil {
		t.Fatal(err)
	}
	if alg.Name() != "WATTER-expect" {
		t.Fatalf("name = %q", alg.Name())
	}
	city := CityXIA().Build()
	orders := city.Orders(WorkloadConfig{Orders: 300, Seed: 9})
	plat, err := New(city.Net, city.Workers(30, 4, 5), WithMeasuredTime(false), WithAlgorithm(alg))
	if err != nil {
		t.Fatal(err)
	}
	m, err := plat.Replay(orders)
	if err != nil {
		t.Fatal(err)
	}
	if m.Served+m.Rejected != len(orders) {
		t.Fatalf("accounting: %+v", m)
	}
}

func TestCityProfilesExported(t *testing.T) {
	for _, f := range []func() CityProfile{CityNYC, CityCDC, CityXIA} {
		p := f()
		if p.Name == "" || p.W <= 0 {
			t.Fatalf("bad profile %+v", p)
		}
	}
	// Facade profiles must be the dataset package's.
	if CityNYC().Name != dataset.NYC().Name {
		t.Fatal("facade drifted from dataset package")
	}
}

// TestFacadeProxy exercises the multi-city front tier through the public
// surface: routed ingestion, a paused city's refusal, unified stats, crash
// injection, probe-driven healing, and per-city final metrics.
func TestFacadeProxy(t *testing.T) {
	cdc, xia := CityCDC().Build(), CityXIA().Build()
	px, err := NewProxy([]CitySpec{
		{ID: "cdc", Net: cdc.Net, Workers: cdc.Workers(8, 4, 2),
			NewAlgorithm: NewOnline,
			Options:      []PlatformOption{WithMeasuredTime(false)}},
		{ID: "xia", Net: xia.Net, Workers: xia.Workers(8, 4, 2),
			NewAlgorithm: NewTimeout,
			Options:      []PlatformOption{WithMeasuredTime(false)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	workloads := map[string][]*Order{
		"cdc": cdc.Orders(WorkloadConfig{Orders: 30, Seed: 4}),
		"xia": xia.Orders(WorkloadConfig{Orders: 30, Seed: 5}),
	}
	half := workloads["cdc"][:15]
	for _, o := range half {
		cp := *o
		if err := px.Submit("cdc", &cp); err != nil {
			t.Fatal(err)
		}
	}
	if err := px.Admin().Pause("xia"); err != nil {
		t.Fatal(err)
	}
	if err := px.Submit("xia", workloads["xia"][0]); !errors.Is(err, ErrCityPaused) {
		t.Fatalf("paused city: err = %v, want ErrCityPaused", err)
	}
	if err := px.Admin().Resume("xia"); err != nil {
		t.Fatal(err)
	}
	if err := px.Admin().Kill("cdc"); err != nil {
		t.Fatal(err)
	}
	healed := false
	for _, h := range px.Admin().Probe() {
		if h.City == "cdc" {
			if !h.Recovered || h.State != CityRunning {
				t.Fatalf("probe did not heal: %+v", h)
			}
			healed = true
		}
	}
	if !healed {
		t.Fatal("probe skipped the killed city")
	}
	workloads["cdc"] = workloads["cdc"][15:]
	metrics, err := px.Replay(workloads)
	if err != nil {
		t.Fatal(err)
	}
	if len(metrics) != 2 || metrics["cdc"] == nil || metrics["xia"] == nil {
		t.Fatalf("per-city metrics: %v", metrics)
	}
	st := px.Admin().Stats()
	if !st.Aggregate.Closed || st.Aggregate.Orders.Submitted != 60 {
		t.Fatalf("fleet stats: %+v", st.Aggregate)
	}
	if st.Restarts != 1 {
		t.Fatalf("restart count = %d", st.Restarts)
	}
	if _, err := px.Close(); err != nil {
		t.Fatal(err)
	}
	if err := px.Submit("cdc", half[0]); err == nil {
		t.Fatal("closed proxy accepted traffic")
	}
}
