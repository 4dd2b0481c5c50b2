package exp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"watter/internal/dataset"
	"watter/internal/sim"
	"watter/internal/stats"
)

// tinyParams is the smallest workload that still exercises pooling.
func tinyParams() Params {
	p := DefaultParams(dataset.XIA())
	p.Orders = 150
	p.Workers = 18
	p.Train.HistoricalOrders = 120
	p.Train.TrainSteps = 40
	p.Train.Hidden = []int{8}
	return p
}

func TestMatrixJobsExpansion(t *testing.T) {
	m := Matrix{
		Base:   tinyParams(),
		Algs:   []string{"GDP", "WATTER-online"},
		Orders: []int{100, 200},
		Seeds:  []int64{1, 2, 3},
	}
	jobs := m.Jobs()
	if want := 2 * 2 * 3; len(jobs) != want {
		t.Fatalf("jobs = %d, want %d", len(jobs), want)
	}
	// Orders outermost, then algorithms; the cell key names every
	// parameter a reader compares cells by.
	var cells []string
	for i := 0; i < len(jobs); i += 3 {
		cells = append(cells, jobs[i].Cell)
	}
	wantCells := []string{
		"GDP/XIA/n100/m18/k4/tau1.60", "WATTER-online/XIA/n100/m18/k4/tau1.60",
		"GDP/XIA/n200/m18/k4/tau1.60", "WATTER-online/XIA/n200/m18/k4/tau1.60",
	}
	if !reflect.DeepEqual(cells, wantCells) {
		t.Fatalf("cells = %q, want %q", cells, wantCells)
	}
	// Deterministic: a second expansion must be identical.
	again := m.Jobs()
	for i := range jobs {
		if jobs[i].Cell != again[i].Cell || jobs[i].P.Seed != again[i].P.Seed || jobs[i].Alg != again[i].Alg {
			t.Fatalf("expansion not deterministic at %d: %+v vs %+v", i, jobs[i], again[i])
		}
		if jobs[i].Index != i {
			t.Fatalf("job %d has Index %d", i, jobs[i].Index)
		}
	}
	// Replicates of one cell must be adjacent and share everything but seed.
	for i := 0; i < len(jobs); i += 3 {
		for k := 1; k < 3; k++ {
			a, b := jobs[i], jobs[i+k]
			if a.Cell != b.Cell || a.P.Orders != b.P.Orders || a.P.Seed == b.P.Seed {
				t.Fatalf("replicates misgrouped at %d: %+v vs %+v", i, a, b)
			}
		}
	}
	// Shared training: every job pins Train.Seed to the first seed.
	for _, j := range jobs {
		if j.P.Train.Seed != 1 {
			t.Fatalf("Train.Seed = %d, want 1", j.P.Train.Seed)
		}
	}
}

func TestMatrixDefaultsToBase(t *testing.T) {
	base := tinyParams()
	m := Matrix{Base: base, Algs: []string{"GDP"}}
	jobs := m.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(jobs))
	}
	j := jobs[0]
	if j.P.Orders != base.Orders || j.P.Workers != base.Workers || j.P.Seed != base.Seed {
		t.Fatalf("base not propagated: %+v", j.P)
	}
}

// deterministicFields strips the wall-clock measurements (DecisionSeconds,
// Elapsed) that legitimately vary between runs.
func deterministicFields(m *sim.Metrics) string {
	c := *m
	c.DecisionSeconds = 0
	return fmt.Sprintf("%+v", c)
}

// TestSweepParallelMatchesSequential is the engine's core guarantee: the
// same matrix produces bit-identical per-seed metrics at any parallelism.
func TestSweepParallelMatchesSequential(t *testing.T) {
	m := Matrix{
		Base:   tinyParams(),
		Algs:   []string{"GDP", "GAS", "WATTER-online", "WATTER-timeout"},
		Orders: []int{120},
		Seeds:  []int64{1, 2},
	}
	seq, err := (&SweepRunner{Runner: NewRunner(), Parallel: 1}).Run(m.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&SweepRunner{Runner: NewRunner(), Parallel: 8}).Run(m.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Results) != len(par.Results) || len(seq.Results) != len(m.Jobs()) {
		t.Fatalf("result counts differ: %d vs %d", len(seq.Results), len(par.Results))
	}
	for i := range seq.Results {
		a, b := deterministicFields(seq.Results[i].Metrics), deterministicFields(par.Results[i].Metrics)
		if a != b {
			t.Fatalf("job %d (%s seed %d) diverged:\nseq: %s\npar: %s",
				i, seq.Jobs[i].Cell, seq.Jobs[i].P.Seed, a, b)
		}
	}
	// Aggregates follow: identical per-seed metrics give identical cells.
	if len(seq.Cells) != len(par.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(seq.Cells), len(par.Cells))
	}
	for i := range seq.Cells {
		if seq.Cells[i].ExtraTime != par.Cells[i].ExtraTime ||
			seq.Cells[i].ServiceRate != par.Cells[i].ServiceRate ||
			seq.Cells[i].UnifiedCost != par.Cells[i].UnifiedCost {
			t.Fatalf("cell %s aggregates diverged", seq.Cells[i].Cell)
		}
	}
}

// TestSweepRepeatable: two runs of the same engine configuration agree —
// catches residual map-iteration nondeterminism anywhere in a run.
func TestSweepRepeatable(t *testing.T) {
	m := Matrix{
		Base:  tinyParams(),
		Algs:  []string{"GDP", "WATTER-timeout"},
		Seeds: []int64{5},
	}
	a, err := NewSweepRunner(nil).Run(m.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSweepRunner(nil).Run(m.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if deterministicFields(a.Results[i].Metrics) != deterministicFields(b.Results[i].Metrics) {
			t.Fatalf("run-to-run divergence on job %d (%s)", i, a.Jobs[i].Cell)
		}
	}
}

// TestSweepSharesTraining: replicate seeds of a WATTER-expect cell must
// train exactly one model (singleflight under concurrency).
func TestSweepSharesTraining(t *testing.T) {
	r := NewRunner()
	m := Matrix{
		Base:  tinyParams(),
		Algs:  []string{"WATTER-expect"},
		Seeds: []int64{1, 2, 3, 4},
	}
	if _, err := (&SweepRunner{Runner: r, Parallel: 4}).Run(m.Jobs()); err != nil {
		t.Fatal(err)
	}
	if n := len(r.models); n != 1 {
		t.Fatalf("trained %d models for one cell, want 1", n)
	}
}

func TestSweepErrorPropagates(t *testing.T) {
	m := Matrix{Base: tinyParams(), Algs: []string{"GDP", "no-such-alg"}, Seeds: []int64{1, 2}}
	for _, parallel := range []int{1, 4} {
		_, err := (&SweepRunner{Runner: NewRunner(), Parallel: parallel}).Run(m.Jobs())
		if err == nil || !strings.Contains(err.Error(), "no-such-alg") {
			t.Fatalf("parallel=%d: err = %v, want unknown-algorithm error", parallel, err)
		}
	}
}

// TestSweepInvalidParamsReturnError: a configuration that would panic while
// its cell is built — in Setup for a negative order or fleet size, in
// WATTER-expect's training for a zero tick, a negative historical order
// count or a layer without units — or fail late on its first order, for a
// zero, negative or non-finite deadline or wait-limit scale — or train what
// was not asked for, a mixture of fewer than one component or a loss blend
// ω outside [0, 1], comes back as an ErrInvalidParams naming the field from
// Build, from RunOne and from the sweep, at parallel 1 and 4, instead of
// crashing the process from a worker goroutine or starting to train.
func TestSweepInvalidParamsReturnError(t *testing.T) {
	noTick := tinyParams()
	noTick.TickEvery = 0
	negWorkers := tinyParams()
	negWorkers.Workers = -1
	negOrders := tinyParams()
	negOrders.Orders = -1
	negHistory := tinyParams()
	negHistory.Train.HistoricalOrders = -1
	negSteps := tinyParams()
	negSteps.Train.TrainSteps = -5
	emptyLayer := tinyParams()
	emptyLayer.Train.Hidden = []int{-1}
	components := func(k int) Params {
		p := tinyParams()
		p.Train.GMMComponents = k
		return p
	}
	blend := func(omega float64) Params {
		p := tinyParams()
		p.Train.Omega = omega
		return p
	}
	scaled := func(tau, eta float64) Params {
		p := tinyParams()
		p.TauScale, p.Eta = tau, eta
		return p
	}
	city := func(edit func(*dataset.Profile)) Params {
		p := tinyParams()
		edit(&p.City)
		return p
	}
	// The sweep varies a field no row breaks, so every row reaches the
	// figure-sweep arm as built.
	mini := Sweep{
		ID: "mini", Points: []float64{4},
		Apply: func(p Params, x float64) Params {
			p.MaxCap = int(x)
			return p
		},
	}
	for _, tc := range []struct {
		name string
		p    Params
		algs []string
		want string
	}{
		{"zero tick", noTick, []string{"GDP", "WATTER-expect"}, "TickEvery"},
		{"negative fleet", negWorkers, []string{"GDP", "WATTER-online", "WATTER-expect"}, "Workers"},
		{"negative orders", negOrders, []string{"GDP", "WATTER-online", "WATTER-expect"}, "Orders"},
		{"negative history", negHistory, []string{"WATTER-expect"}, "Train.HistoricalOrders"},
		{"negative train steps", negSteps, []string{"GDP", "WATTER-expect"}, "Train.TrainSteps"},
		{"empty layer", emptyLayer, []string{"WATTER-expect"}, "Train.Hidden"},
		{"zero components", components(0), []string{"GDP", "WATTER-expect"}, "Train.GMMComponents"},
		{"negative components", components(-2), []string{"WATTER-expect"}, "Train.GMMComponents"},
		{"NaN omega", blend(math.NaN()), []string{"GDP", "WATTER-expect"}, "Train.Omega"},
		{"negative omega", blend(-0.1), []string{"WATTER-expect"}, "Train.Omega"},
		{"omega above one", blend(1.5), []string{"WATTER-expect"}, "Train.Omega"},
		{"zero tau", scaled(0, 0.8), []string{"GDP", "WATTER-timeout", "WATTER-expect"}, "TauScale"},
		{"negative tau", scaled(-1, 0.8), []string{"GDP", "WATTER-timeout", "WATTER-expect"}, "TauScale"},
		{"NaN tau", scaled(math.NaN(), 0.8), []string{"WATTER-timeout", "WATTER-expect"}, "TauScale"},
		{"infinite tau", scaled(math.Inf(1), 0.8), []string{"WATTER-timeout"}, "TauScale"},
		{"zero eta", scaled(1.6, 0), []string{"GDP", "WATTER-timeout", "WATTER-expect"}, "Eta"},
		{"negative eta", scaled(1.6, -1), []string{"GDP", "WATTER-timeout", "WATTER-expect"}, "Eta"},
		{"NaN eta", scaled(1.6, math.NaN()), []string{"WATTER-timeout", "WATTER-expect"}, "Eta"},
		{"infinite eta", scaled(1.6, math.Inf(1)), []string{"WATTER-timeout"}, "Eta"},
		{"empty city", city(func(c *dataset.Profile) { *c = dataset.Profile{Name: "hostile"} }), []string{"GDP", "WATTER-online"}, "City.W"},
		{"zero city width", city(func(c *dataset.Profile) { c.W = 0 }), []string{"GDP", "WATTER-online", "WATTER-expect"}, "City.W"},
		{"negative city height", city(func(c *dataset.Profile) { c.H = -3 }), []string{"WATTER-timeout"}, "City.H"},
		{"zero cell size", city(func(c *dataset.Profile) { c.CellMeters = 0 }), []string{"GDP", "WATTER-online"}, "City.CellMeters"},
		{"NaN cell size", city(func(c *dataset.Profile) { c.CellMeters = math.NaN() }), []string{"WATTER-expect"}, "City.CellMeters"},
		{"infinite cell size", city(func(c *dataset.Profile) { c.CellMeters = math.Inf(1) }), []string{"GDP"}, "City.CellMeters"},
		{"negative speed", city(func(c *dataset.Profile) { c.SpeedMPS = -7 }), []string{"GDP", "WATTER-online"}, "City.SpeedMPS"},
		{"infinite speed", city(func(c *dataset.Profile) { c.SpeedMPS = math.Inf(1) }), []string{"WATTER-timeout"}, "City.SpeedMPS"},
		{"graph city without nodes", city(func(c *dataset.Profile) { c.W, c.RoadJitter = 0, 0.3 }), []string{"WATTER-online"}, "City.W"},
		{"jitter above one", city(func(c *dataset.Profile) { c.RoadJitter = 1.5 }), []string{"GDP", "WATTER-online"}, "City.RoadJitter"},
		{"NaN jitter", city(func(c *dataset.Profile) { c.RoadJitter = math.NaN() }), []string{"WATTER-timeout"}, "City.RoadJitter"},
	} {
		check := func(what string, err error) {
			t.Helper()
			if !errors.Is(err, ErrInvalidParams) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%s, %s: err = %v, want an ErrInvalidParams naming %q", tc.name, what, err, tc.want)
			}
		}
		for _, alg := range tc.algs {
			_, err := NewRunner().Build(alg, tc.p)
			check("Build("+alg+")", err)
			_, err = NewRunner().RunOne(alg, tc.p)
			check("RunOne("+alg+")", err)
		}
		mini.Algs = tc.algs
		for _, parallel := range []int{1, 4} {
			sr := &SweepRunner{Runner: NewRunner(), Parallel: parallel}
			_, err := sr.Run(Matrix{Base: tc.p, Algs: tc.algs, Seeds: []int64{1, 2}}.Jobs())
			check(fmt.Sprintf("matrix at parallel %d", parallel), err)
			_, err = sr.Run(mini.Jobs(tc.p, []int64{1, 2}))
			check(fmt.Sprintf("figure sweep at parallel %d", parallel), err)
		}
	}
}

// TestSweepJobsParallelMatchesSequential: a figure sweep's jobs run through
// the one loop give the same results at parallel 1 and 4 — per-job metrics,
// X and Params, in expansion order — and the same cells.
func TestSweepJobsParallelMatchesSequential(t *testing.T) {
	base := tinyParams()
	s := Sweep{
		ID: "mini", Label: "tau",
		Points: []float64{1.4, 1.8},
		Apply: func(p Params, x float64) Params {
			p.TauScale = x
			return p
		},
		Algs: []string{"WATTER-online", "GDP"},
	}
	jobs := s.Jobs(base, []int64{1, 2})
	if len(jobs) != 2*2*2 {
		t.Fatalf("jobs = %d, want 8", len(jobs))
	}
	seq, err := (&SweepRunner{Runner: NewRunner(), Parallel: 1}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	par, err := (&SweepRunner{Runner: NewRunner(), Parallel: 4}).Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Results) != len(jobs) || len(par.Results) != len(jobs) {
		t.Fatalf("results %d / %d for %d jobs", len(seq.Results), len(par.Results), len(jobs))
	}
	for i, j := range jobs {
		a, b := seq.Results[i], par.Results[i]
		if a.Alg != j.Alg || b.Alg != j.Alg || a.X != j.X || b.X != j.X {
			t.Fatalf("job %d: results %s/%v and %s/%v, job %s/%v", i, a.Alg, a.X, b.Alg, b.X, j.Alg, j.X)
		}
		if !reflect.DeepEqual(a.Params, j.P) || !reflect.DeepEqual(b.Params, j.P) {
			t.Fatalf("job %d: a result's Params differ from its job's", i)
		}
		if deterministicFields(a.Metrics) != deterministicFields(b.Metrics) {
			t.Fatalf("metrics diverged at %d (%s x=%v)", i, j.Alg, j.X)
		}
	}
	if len(seq.Cells) != 4 || len(par.Cells) != len(seq.Cells) {
		t.Fatalf("cells %d / %d, want 4", len(seq.Cells), len(par.Cells))
	}
	for i := range seq.Cells {
		a, b := seq.Cells[i], par.Cells[i]
		a.Elapsed, b.Elapsed = stats.Welford{}, stats.Welford{}
		a.RunningTime, b.RunningTime = stats.Summary{}, stats.Summary{}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("cell %d diverged:\nseq: %+v\npar: %+v", i, a, b)
		}
	}
}

func TestReplicateSeeds(t *testing.T) {
	got := ReplicateSeeds(7, 3)
	if len(got) != 3 || got[0] != 7 || got[2] != 9 {
		t.Fatalf("ReplicateSeeds = %v", got)
	}
	for _, n := range []int{0, -2} {
		if got := ReplicateSeeds(1, n); len(got) != 0 {
			t.Fatalf("ReplicateSeeds(1, %d) = %v, want an empty grid", n, got)
		}
	}
}

// TestSweepRunnerParallel: a negative Parallel is refused naming the field
// before any job runs (it used to mean GOMAXPROCS), and 0 still means
// GOMAXPROCS.
func TestSweepRunnerParallel(t *testing.T) {
	jobs := Matrix{Base: tinyParams(), Algs: []string{"GDP"}, Seeds: []int64{1}}.Jobs()
	for _, tc := range []struct {
		parallel int
		ok       bool
	}{{-3, false}, {0, true}} {
		res, err := (&SweepRunner{Runner: NewRunner(), Parallel: tc.parallel}).Run(jobs)
		if tc.ok && (err != nil || len(res.Results) != 1) {
			t.Errorf("Parallel: %d: err = %v", tc.parallel, err)
		}
		if !tc.ok && (!errors.Is(err, ErrInvalidParams) || !strings.Contains(err.Error(), "Parallel") || res != nil) {
			t.Errorf("Parallel: %d: err = %v, want an ErrInvalidParams naming Parallel", tc.parallel, err)
		}
	}
}

func TestPrintCells(t *testing.T) {
	m := Matrix{Base: tinyParams(), Algs: []string{"GDP"}, Seeds: []int64{1, 2}}
	res, err := NewSweepRunner(nil).Run(m.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("cells = %d, want 1", len(res.Cells))
	}
	c := res.Cells[0]
	if c.ExtraTime.N != 2 || len(c.Seeds) != 2 {
		t.Fatalf("cell did not aggregate both seeds: %+v", c)
	}
	var buf bytes.Buffer
	PrintCells(&buf, res.Cells)
	out := buf.String()
	for _, needle := range []string{"GDP", "XIA", "service_rate"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("report missing %q:\n%s", needle, out)
		}
	}
}
