package proxy

import (
	"errors"
	"sort"
	"strconv"
	"strings"
	"testing"

	"watter/internal/core"
	"watter/internal/dataset"
	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/pool"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// algFactories are the two cheap pooling policies the proof obligations
// run over (the expensive learned baselines are covered by exp's sweeps).
var algFactories = map[string]func() sim.Algorithm{
	"online":  func() sim.Algorithm { return core.New(strategy.Online{}, pool.DefaultOptions()) },
	"timeout": func() sim.Algorithm { return core.New(strategy.Timeout{}, pool.DefaultOptions()) },
}

// testCity materializes one city's blueprint and workload: profile-built
// network, seed-derived fleet prototypes and a release-sorted order
// stream. Workers are regenerated (not shared) per call so arms never
// alias mutable fleet state.
func testCity(profile dataset.Profile, seed int64, orders, workers int) (CitySpec, []*order.Order) {
	city := profile.Build()
	os := city.Orders(dataset.WorkloadConfig{Orders: orders, Seed: seed})
	ws := city.Workers(workers, 4, seed+1000)
	spec := CitySpec{
		ID:      profile.Name,
		Net:     city.Net,
		Workers: ws,
	}
	return spec, os
}

func threeCities(seed int64, newAlg func() sim.Algorithm) ([]CitySpec, map[string][]*order.Order) {
	profiles := []dataset.Profile{dataset.CDC(), dataset.NYC(), dataset.XIA()}
	specs := make([]CitySpec, 0, len(profiles))
	workloads := make(map[string][]*order.Order, len(profiles))
	for i, p := range profiles {
		spec, os := testCity(p, seed+int64(i)*17, 40, 6)
		spec.NewAlgorithm = newAlg
		spec.Options = []platform.Option{platform.WithMeasuredTime(false)}
		specs = append(specs, spec)
		workloads[spec.ID] = os
	}
	return specs, workloads
}

// stripWallClock zeroes the one documented nondeterministic metric field
// so comparisons are over the deterministic remainder only.
func stripWallClock(m *sim.Metrics) sim.Metrics {
	cp := *m
	cp.DecisionSeconds = 0
	return cp
}

// TestNewValidates pins the constructor's error surface.
func TestNewValidates(t *testing.T) {
	spec, _ := testCity(dataset.CDC(), 1, 5, 2)
	if _, err := New(nil); err == nil {
		t.Fatal("no cities must fail")
	}
	blank := spec
	blank.ID = ""
	if _, err := New([]CitySpec{blank}); err == nil {
		t.Fatal("empty city ID must fail")
	}
	if _, err := New([]CitySpec{spec, spec}); err == nil {
		t.Fatal("duplicate city ID must fail")
	}
	nilWorker := spec
	nilWorker.Workers = []*order.Worker{nil}
	if _, err := New([]CitySpec{nilWorker}); err == nil {
		t.Fatal("nil worker must fail")
	}
	nilAlg := spec
	nilAlg.NewAlgorithm = func() sim.Algorithm { return nil }
	if _, err := New([]CitySpec{nilAlg}); err == nil {
		t.Fatal("nil-returning algorithm factory must fail")
	}
}

// TestRoutingErrors pins the router's error taxonomy: unknown cities,
// closed proxies, and the idempotent Close result.
func TestRoutingErrors(t *testing.T) {
	spec, orders := testCity(dataset.CDC(), 2, 10, 3)
	spec.Options = []platform.Option{platform.WithMeasuredTime(false)}
	x, err := New([]CitySpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Submit("atlantis", orders[0]); !errors.Is(err, ErrUnknownCity) {
		t.Fatalf("unknown city: %v", err)
	}
	if _, err := x.CityJournal("atlantis"); !errors.Is(err, ErrUnknownCity) {
		t.Fatalf("unknown city journal: %v", err)
	}
	if _, err := x.Replay(map[string][]*order.Order{"atlantis": orders}); !errors.Is(err, ErrUnknownCity) {
		t.Fatalf("unknown city workload: %v", err)
	}
	m1, err := x.Close()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := x.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m1[spec.ID] != m2[spec.ID] {
		t.Fatal("double close must repeat the first result")
	}
	if err := x.Submit(spec.ID, orders[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if _, err := x.Tick(); !errors.Is(err, ErrClosed) {
		t.Fatalf("tick after close: %v", err)
	}
	if _, err := x.Replay(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("replay after close: %v", err)
	}
	if err := x.Admin().Pause(spec.ID); !errors.Is(err, ErrClosed) {
		t.Fatalf("pause after close: %v", err)
	}
}

// TestProxyIsolation is the tentpole's first proof obligation: a proxy
// running three cities yields, per city, metrics bit-identical to that
// city run alone on a standalone Platform — for two algorithms and two
// seeds. Shared infrastructure adds zero cross-city interference.
func TestProxyIsolation(t *testing.T) {
	for name, newAlg := range algFactories {
		for _, seed := range []int64{7, 91} {
			specs, workloads := threeCities(seed, newAlg)
			x, err := New(specs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := x.Replay(workloads)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range specs {
				// Standalone arm: same blueprint, fresh fleet clone, own
				// platform — no proxy anywhere.
				ws := make([]*order.Worker, len(spec.Workers))
				for i, w := range spec.Workers {
					cp := *w
					ws[i] = &cp
				}
				p, err := platform.New(spec.Net, ws,
					platform.WithMeasuredTime(false), platform.WithAlgorithm(newAlg()))
				if err != nil {
					t.Fatal(err)
				}
				want, err := p.Replay(workloads[spec.ID])
				if err != nil {
					t.Fatal(err)
				}
				if stripWallClock(got[spec.ID]) != stripWallClock(want) {
					t.Fatalf("%s/seed%d: city %s diverged under the proxy:\nproxy:      %+v\nstandalone: %+v",
						name, seed, spec.ID, *got[spec.ID], *want)
				}
			}
		}
	}
}

// TestJournalReplayRecovery is the tentpole's second proof obligation: a
// city killed mid-run is rebuilt from its recorded journal, every
// re-emitted event verifies against the recording, and the resumed run's
// final metrics are bit-identical to an uninterrupted one — two
// algorithms, two seeds, both healing paths (traffic and probe).
func TestJournalReplayRecovery(t *testing.T) {
	for name, newAlg := range algFactories {
		for si, seed := range []int64{13, 202} {
			specs, workloads := threeCities(seed, newAlg)
			victim := specs[1].ID

			run := func(kill bool) map[string]*sim.Metrics {
				x, err := New(specs)
				if err != nil {
					t.Fatal(err)
				}
				// Interleave the three streams exactly as Replay would, but
				// by hand so the crash lands mid-flight.
				type entry struct {
					city string
					o    *order.Order
				}
				var feed []entry
				for _, spec := range specs {
					for _, o := range workloads[spec.ID] {
						cp := *o
						feed = append(feed, entry{spec.ID, &cp})
					}
				}
				for i := 1; i < len(feed); i++ {
					for j := i; j > 0 && feed[j].o.Release < feed[j-1].o.Release; j-- {
						feed[j], feed[j-1] = feed[j-1], feed[j]
					}
				}
				for i, e := range feed {
					if kill && i == len(feed)/2 {
						if err := x.Admin().Kill(victim); err != nil {
							t.Fatal(err)
						}
						// Alternate the detection path: traffic-driven heal
						// on one seed, probe-driven on the other.
						if si%2 == 1 {
							for _, h := range x.Admin().Probe() {
								if h.City == victim && !h.Recovered {
									t.Fatalf("probe did not heal %s: %+v", victim, h)
								}
							}
						}
					}
					if err := x.Submit(e.city, e.o); err != nil {
						t.Fatalf("submit %s after crash: %v", e.city, err)
					}
				}
				if kill {
					st := x.Admin().Stats()
					if st.Restarts == 0 {
						t.Fatal("no restart recorded after kill")
					}
				}
				m, err := x.Close()
				if err != nil {
					t.Fatal(err)
				}
				return m
			}

			clean, healed := run(false), run(true)
			for _, spec := range specs {
				if stripWallClock(clean[spec.ID]) != stripWallClock(healed[spec.ID]) {
					t.Fatalf("%s/seed%d: city %s not bit-identical after HA restart:\nclean:  %+v\nhealed: %+v",
						name, seed, spec.ID, *clean[spec.ID], *healed[spec.ID])
				}
			}
		}
	}
}

// feedEntry is one order of a merged multi-city feed.
type feedEntry struct {
	city string
	o    *order.Order
}

// mergedFeed interleaves every city's workload (cloned) in release order,
// ties in routing order — the sequence Replay submits.
func mergedFeed(specs []CitySpec, workloads map[string][]*order.Order) []feedEntry {
	var feed []feedEntry
	for _, spec := range specs {
		for _, o := range workloads[spec.ID] {
			cp := *o
			feed = append(feed, feedEntry{spec.ID, &cp})
		}
	}
	sort.SliceStable(feed, func(i, j int) bool { return feed[i].o.Release < feed[j].o.Release })
	return feed
}

// TestPauseResumeHealKilledCity pins that the admin plane heals like
// traffic does: pausing a city that was killed but not yet detected
// restarts it from its journal, resuming lifts the pause, and the finished
// run is bit-identical to an uninterrupted one after exactly one restart.
func TestPauseResumeHealKilledCity(t *testing.T) {
	specs, workloads := threeCities(31, algFactories["online"])
	victim := specs[0].ID
	run := func(kill bool) (map[string]*sim.Metrics, int) {
		x, err := New(specs)
		if err != nil {
			t.Fatal(err)
		}
		feed := mergedFeed(specs, workloads)
		for i, e := range feed {
			if kill && i == len(feed)/2 {
				if err := x.Admin().Kill(victim); err != nil {
					t.Fatal(err)
				}
				if err := x.Admin().Pause(victim); err != nil {
					t.Fatalf("pause a killed city: %v", err)
				}
				if err := x.Admin().Resume(victim); err != nil {
					t.Fatalf("resume a healed city: %v", err)
				}
			}
			if err := x.Submit(e.city, e.o); err != nil {
				t.Fatalf("submit %s: %v", e.city, err)
			}
		}
		restarts := x.Admin().Stats().Restarts
		m, err := x.Close()
		if err != nil {
			t.Fatal(err)
		}
		return m, restarts
	}
	clean, _ := run(false)
	healed, restarts := run(true)
	if restarts != 1 {
		t.Fatalf("restarts = %d, want 1", restarts)
	}
	for _, spec := range specs {
		if stripWallClock(clean[spec.ID]) != stripWallClock(healed[spec.ID]) {
			t.Fatalf("city %s not bit-identical after pause/resume healed it:\nclean:  %+v\nhealed: %+v",
				spec.ID, *clean[spec.ID], *healed[spec.ID])
		}
	}
}

// TestDivergentReplayRefusesRestart pins DESIGN §10's refusal: a city whose
// factory builds a different policy on restart (WATTER-online first,
// WATTER-timeout after) diverges from its journal during replay, so the
// restart is refused. The city stays down — probes report it, its traffic
// keeps failing, Close names it — while the other cities still match their
// standalone runs.
func TestDivergentReplayRefusesRestart(t *testing.T) {
	specs, workloads := threeCities(47, algFactories["online"])
	victim := specs[1].ID
	calls := 0
	specs[1].NewAlgorithm = func() sim.Algorithm {
		calls++
		if calls == 1 {
			return algFactories["online"]()
		}
		return algFactories["timeout"]()
	}
	x, err := New(specs)
	if err != nil {
		t.Fatal(err)
	}
	feed := mergedFeed(specs, workloads)
	refused := 0
	for i, e := range feed {
		if i == len(feed)/2 {
			if err := x.Admin().Kill(victim); err != nil {
				t.Fatal(err)
			}
			for _, h := range x.Admin().Probe() {
				if h.City != victim {
					continue
				}
				if h.State != StateDown || !errors.Is(h.Err, ErrCityDown) {
					t.Fatalf("probe of a city whose replay diverged: %+v", h)
				}
				if !strings.Contains(h.Err.Error(), "divergence") {
					t.Fatalf("restart refused for another reason than divergence: %v", h.Err)
				}
			}
		}
		err := x.Submit(e.city, e.o)
		switch {
		case i >= len(feed)/2 && e.city == victim:
			if !errors.Is(err, ErrCityDown) {
				t.Fatalf("traffic into the down city %s: %v, want ErrCityDown", victim, err)
			}
			refused++
		case err != nil:
			t.Fatalf("submit %s: %v", e.city, err)
		}
	}
	if refused == 0 {
		t.Fatal("no traffic reached the down city after the kill")
	}
	got, err := x.Close()
	if !errors.Is(err, ErrCityDown) || !strings.Contains(err.Error(), strconv.Quote(victim)) {
		t.Fatalf("Close = %v, want an ErrCityDown naming %q", err, victim)
	}
	for _, spec := range specs {
		if spec.ID == victim {
			continue
		}
		ws := make([]*order.Worker, len(spec.Workers))
		for i, w := range spec.Workers {
			cp := *w
			ws[i] = &cp
		}
		p, err := platform.New(spec.Net, ws,
			platform.WithMeasuredTime(false), platform.WithAlgorithm(spec.NewAlgorithm()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Replay(workloads[spec.ID])
		if err != nil {
			t.Fatal(err)
		}
		if got[spec.ID] == nil || stripWallClock(got[spec.ID]) != stripWallClock(want) {
			t.Fatalf("bystander %s diverged from its standalone run:\nproxy:      %+v\nstandalone: %+v",
				spec.ID, got[spec.ID], *want)
		}
	}
}

// TestPauseIsMetricsNeutral pins the ops guarantee that makes pause safe
// to use: freezing a city mid-run (while other cities keep serving) and
// resuming it before its next order changes nothing — virtual time means
// the skipped wall-clock never existed.
func TestPauseIsMetricsNeutral(t *testing.T) {
	specs, workloads := threeCities(43, algFactories["online"])
	frozen := specs[2].ID

	run := func(pause bool) map[string]*sim.Metrics {
		x, err := New(specs)
		if err != nil {
			t.Fatal(err)
		}
		if pause {
			if err := x.Admin().Pause(frozen); err != nil {
				t.Fatal(err)
			}
			cp := *workloads[frozen][0]
			if err := x.Submit(frozen, &cp); !errors.Is(err, ErrPaused) {
				t.Fatalf("paused city accepted traffic: %v", err)
			}
			// Other cities keep serving while one is frozen.
			for _, spec := range specs[:2] {
				cp := *workloads[spec.ID][0]
				if err := x.Submit(spec.ID, &cp); err != nil {
					t.Fatal(err)
				}
				workloads[spec.ID] = workloads[spec.ID][1:]
			}
			if h := probeOf(t, x, frozen); h.State != StatePaused {
				t.Fatalf("frozen city probe: %+v", h)
			}
			if err := x.Admin().Resume(frozen); err != nil {
				t.Fatal(err)
			}
		}
		m, err := x.Replay(workloads)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	// Run the plain arm first: the pause arm consumes workload prefixes.
	plain := run(false)
	paused := run(true)
	for _, spec := range specs {
		if stripWallClock(plain[spec.ID]) != stripWallClock(paused[spec.ID]) {
			t.Fatalf("pause changed city %s:\nplain:  %+v\npaused: %+v",
				spec.ID, *plain[spec.ID], *paused[spec.ID])
		}
	}
}

// probeOf returns the probe report of one city.
func probeOf(t *testing.T, x *Proxy, cityID string) Health {
	t.Helper()
	for _, h := range x.Admin().Probe() {
		if h.City == cityID {
			return h
		}
	}
	t.Fatalf("probe has no report for %s", cityID)
	return Health{}
}

// TestPauseAcrossHeal pins that a pause outlives an HA restart: a city
// paused and then killed is healed by the probe (Recovered, still
// StatePaused), keeps refusing traffic with ErrPaused and keeps its clock
// through a coordinated tick, and once resumed every city's finished run is
// bit-identical to one where no city was paused, killed or ticked early. The pause is the
// proxy's flag alone, so the rebuilt platform needs nothing re-applied.
func TestPauseAcrossHeal(t *testing.T) {
	specs, workloads := threeCities(59, algFactories["online"])
	victim := specs[1].ID
	run := func(disrupt bool) map[string]*sim.Metrics {
		x, err := New(specs)
		if err != nil {
			t.Fatal(err)
		}
		feed := mergedFeed(specs, workloads)
		for i, e := range feed {
			if disrupt && i == len(feed)/2 {
				if err := x.Admin().Pause(victim); err != nil {
					t.Fatal(err)
				}
				if err := x.Admin().Kill(victim); err != nil {
					t.Fatal(err)
				}
				h := probeOf(t, x, victim)
				if !h.Recovered || h.State != StatePaused || h.Restarts != 1 {
					t.Fatalf("probe of a paused, killed city: %+v", h)
				}
				cp := *e.o
				if err := x.Submit(victim, &cp); !errors.Is(err, ErrPaused) {
					t.Fatalf("healed paused city accepted traffic: %v", err)
				}
				before, err := x.Admin().CityStats(victim)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := x.Tick(); err != nil {
					t.Fatal(err)
				}
				after, err := x.Admin().CityStats(victim)
				if err != nil {
					t.Fatal(err)
				}
				if after.Clock != before.Clock {
					t.Fatalf("a coordinated tick moved the paused city's clock from %v to %v", before.Clock, after.Clock)
				}
				if err := x.Admin().Resume(victim); err != nil {
					t.Fatal(err)
				}
			}
			if err := x.Submit(e.city, e.o); err != nil {
				t.Fatalf("submit %s: %v", e.city, err)
			}
		}
		m, err := x.Close()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	clean, disrupted := run(false), run(true)
	for _, spec := range specs {
		if stripWallClock(clean[spec.ID]) != stripWallClock(disrupted[spec.ID]) {
			t.Fatalf("city %s not bit-identical after a pause across a heal:\nclean:     %+v\ndisrupted: %+v",
				spec.ID, *clean[spec.ID], *disrupted[spec.ID])
		}
	}
}

// TestJournalMergeDeterminism pins the multiplexer contract: two
// identical runs produce identical merged journals — same length, same
// city tags in the same order, structurally equal events.
func TestJournalMergeDeterminism(t *testing.T) {
	capture := func() []CityEvent {
		specs, workloads := threeCities(57, algFactories["timeout"])
		x, err := New(specs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.Replay(workloads); err != nil {
			t.Fatal(err)
		}
		return x.Journal()
	}
	j1, j2 := capture(), capture()
	if len(j1) == 0 {
		t.Fatal("empty journal")
	}
	if len(j1) != len(j2) {
		t.Fatalf("journal lengths diverged: %d vs %d", len(j1), len(j2))
	}
	for i := range j1 {
		if j1[i].City != j2[i].City || !sameEvent(j1[i].Event, j2[i].Event) {
			t.Fatalf("journal entry %d diverged: %s/%T vs %s/%T",
				i, j1[i].City, j1[i].Event, j2[i].City, j2[i].Event)
		}
	}
	// The merged journal partitions exactly into the per-city journals.
	specs, workloads := threeCities(57, algFactories["timeout"])
	x, err := New(specs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Replay(workloads); err != nil {
		t.Fatal(err)
	}
	merged := x.Journal()
	perCity := make(map[string][]platform.Event)
	for _, ev := range merged {
		perCity[ev.City] = append(perCity[ev.City], ev.Event)
	}
	for _, spec := range specs {
		own, err := x.CityJournal(spec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if len(own) != len(perCity[spec.ID]) {
			t.Fatalf("city %s: merged view has %d events, own journal %d",
				spec.ID, len(perCity[spec.ID]), len(own))
		}
		for i := range own {
			if !sameEvent(own[i], perCity[spec.ID][i]) {
				t.Fatalf("city %s: journal entry %d diverged", spec.ID, i)
			}
		}
	}
}

// TestAdminStats pins the fleet observability fold: the aggregate is the
// Merge of every city's snapshot, and lifecycle flags combine correctly
// across the fleet.
func TestAdminStats(t *testing.T) {
	specs, workloads := threeCities(71, algFactories["online"])
	x, err := New(specs)
	if err != nil {
		t.Fatal(err)
	}
	st := x.Admin().Stats()
	if len(st.Cities) != 3 || st.Aggregate.Closed {
		t.Fatalf("fresh fleet stats: %+v", st)
	}
	if _, err := x.Replay(workloads); err != nil {
		t.Fatal(err)
	}
	st = x.Admin().Stats()
	if !st.Aggregate.Closed {
		t.Fatal("all cities closed but the aggregate is not")
	}
	var submitted, served int
	want := st.Cities[0].Stats
	for i, cs := range st.Cities {
		if cs.City != specs[i].ID {
			t.Fatalf("city %d out of routing order: %s", i, cs.City)
		}
		submitted += cs.Stats.Orders.Submitted
		served += cs.Stats.Orders.Served
		if i > 0 {
			want.Merge(cs.Stats)
		}
	}
	if st.Aggregate != want {
		t.Fatalf("aggregate is not the fold:\nagg:  %+v\nfold: %+v", st.Aggregate, want)
	}
	if st.Aggregate.Orders.Submitted != submitted || st.Aggregate.Orders.Served != served {
		t.Fatalf("aggregate ledger wrong: %+v (want %d/%d)", st.Aggregate.Orders, submitted, served)
	}
	if submitted == 0 || served == 0 {
		t.Fatalf("degenerate workload: submitted=%d served=%d", submitted, served)
	}
	if st.JournalEvents != len(x.Journal()) {
		t.Fatalf("journal length mismatch: %d vs %d", st.JournalEvents, len(x.Journal()))
	}
}

// TestCoordinatedTick pins the one-clock contract: a proxy Tick advances
// every running city to its next boundary and reports the latest time.
func TestCoordinatedTick(t *testing.T) {
	specs, _ := threeCities(83, algFactories["online"])
	for i := range specs {
		specs[i].Options = append(specs[i].Options, platform.WithTick(15))
	}
	x, err := New(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{15, 30} {
		got, err := x.Tick()
		if err != nil || got != want {
			t.Fatalf("tick %d = %v, %v (want %v)", i, got, err, want)
		}
	}
	if err := x.Admin().Pause(specs[0].ID); err != nil {
		t.Fatal(err)
	}
	if got, err := x.Tick(); err != nil || got != 45 {
		t.Fatalf("tick with a paused city = %v, %v", got, err)
	}
	if st, err := x.Admin().CityStats(specs[0].ID); err != nil || st.Clock != 30 {
		t.Fatalf("paused city clock moved: %+v, %v", st, err)
	}
	if st, err := x.Admin().CityStats(specs[1].ID); err != nil || st.Clock != 45 {
		t.Fatalf("running city clock = %+v, %v", st, err)
	}
	if _, err := x.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayUnknownCityDeterministic pins a fixed map-iteration leak:
// when the workload map names several cities the proxy does not own,
// Replay must always report the alphabetically first of them, not
// whichever one map iteration happened to surface. The repeated runs
// give Go's randomized map order every chance to expose a regression.
func TestReplayUnknownCityDeterministic(t *testing.T) {
	specs, workloads := threeCities(7, algFactories["online"])
	for _, id := range []string{"zz-city", "mm-city", "aa-city"} {
		workloads[id] = nil
	}
	const want = `proxy: unknown city: "aa-city"`
	for i := 0; i < 20; i++ {
		x, err := New(specs)
		if err != nil {
			t.Fatal(err)
		}
		_, err = x.Replay(workloads)
		if !errors.Is(err, ErrUnknownCity) {
			t.Fatalf("iteration %d: err = %v, want ErrUnknownCity", i, err)
		}
		if err.Error() != want {
			t.Fatalf("iteration %d: err = %q, want %q — unknown-city selection depends on map order",
				i, err.Error(), want)
		}
	}
}
