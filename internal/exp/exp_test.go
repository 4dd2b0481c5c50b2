package exp

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"watter/internal/dataset"
	"watter/internal/sim"
)

// smallParams keeps harness tests fast.
func smallParams() Params {
	p := DefaultParams(dataset.XIA())
	p.Orders = 400
	p.Workers = 40
	p.Train.HistoricalOrders = 250
	p.Train.TrainSteps = 100
	return p
}

// replay runs alg over the setup's workload on an untimed platform.
func replay(t testing.TB, s *Setup, alg sim.Algorithm) *sim.Metrics {
	t.Helper()
	p, err := s.Platform(alg, false)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Replay(s.Orders)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildAllAlgorithms(t *testing.T) {
	r := NewRunner()
	p := smallParams()
	for _, name := range AlgNames {
		alg, err := r.Build(name, p)
		if err != nil {
			t.Fatalf("Build(%s): %v", name, err)
		}
		if alg.Name() != name {
			t.Fatalf("Build(%s).Name() = %q", name, alg.Name())
		}
	}
	if _, err := r.Build("nope", p); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

func TestRunOneAccounting(t *testing.T) {
	r := NewRunner()
	p := smallParams()
	s, err := r.Setup(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range AlgNames {
		res, err := r.RunOne(name, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := res.Metrics
		if m.Served+m.Rejected != m.Total || m.Total != len(s.Orders) {
			t.Fatalf("%s accounting: %+v", name, m)
		}
		if m.RunningTime() < 0 {
			t.Fatalf("%s runtime negative", name)
		}
	}
}

func TestTrainCaches(t *testing.T) {
	r := NewRunner()
	p := smallParams()
	a := r.Train(p)
	b := r.Train(p)
	if a != b {
		t.Fatal("identical params must reuse the trained model")
	}
	p2 := p
	p2.TauScale = 1.2
	if c := r.Train(p2); c == a {
		t.Fatal("different tau must retrain")
	}
}

func TestTrainProducesUsableArtifacts(t *testing.T) {
	r := NewRunner()
	tr := r.Train(smallParams())
	if tr.Trainer.ReplayLen() == 0 {
		t.Fatal("no experience collected")
	}
	if len(tr.GMM.Components) == 0 {
		t.Fatal("no GMM")
	}
	if tr.Feat.Dim() <= 0 {
		t.Fatal("featurizer broken")
	}
	// The CDF must be a valid distribution function over plausible extras.
	if tr.GMM.CDF(1e6) < 0.99 {
		t.Fatalf("CDF tail = %v", tr.GMM.CDF(1e6))
	}
}

func TestSweepDefinitions(t *testing.T) {
	base := smallParams()
	sweeps := FigureSweeps(base)
	ids := map[string]bool{}
	for _, s := range sweeps {
		if ids[s.ID] {
			t.Fatalf("duplicate sweep id %s", s.ID)
		}
		ids[s.ID] = true
		if len(s.Points) < 2 {
			t.Fatalf("%s has %d points", s.ID, len(s.Points))
		}
		// Apply must actually change the configuration.
		changed := false
		for _, x := range s.Points {
			if base2String(s.Apply(base, x)) != base2String(base) {
				changed = true
			}
		}
		if !changed {
			t.Fatalf("%s.Apply is a no-op", s.ID)
		}
	}
	for _, want := range []string{"fig3", "fig4", "fig5", "fig6", "grid", "eta", "dt", "gmm", "omega"} {
		if !ids[want] {
			t.Fatalf("missing sweep %s", want)
		}
	}
	if _, err := SweepByID(base, "fig99"); err == nil {
		t.Fatal("unknown sweep must error")
	}
	// Every sweep runs end to end with one algorithm: WATTER-timeout, the
	// cheapest, unless the sweep only runs others (the training studies run
	// WATTER-expect alone). Each point must come back as a result.
	sr := NewSweepRunner(nil)
	for _, s := range sweeps {
		alg := "WATTER-timeout"
		if len(s.Algs) > 0 && !slices.Contains(s.Algs, alg) {
			alg = s.Algs[0]
		}
		s.Algs = []string{alg}
		res, err := sr.Run(s.Jobs(base, nil))
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if len(res.Results) != len(s.Points) {
			t.Fatalf("%s: %d results for %d points", s.ID, len(res.Results), len(s.Points))
		}
		for i, r := range res.Results {
			if r.Alg != alg || r.X != s.Points[i] || r.Metrics.Total == 0 {
				t.Fatalf("%s point %v: result %s at %v over %d orders", s.ID, s.Points[i], r.Alg, r.X, r.Metrics.Total)
			}
		}
	}
}

func base2String(p Params) string {
	return fmt.Sprintf("%s/%d/%d/%.2f/%.2f/%d/%d/%.1f/%d/%.2f",
		p.City.Name, p.Orders, p.Workers, p.TauScale, p.Eta,
		p.MaxCap, p.GridN, p.TickEvery, p.Train.GMMComponents, p.Train.Omega)
}

func TestRunSweepAndPrint(t *testing.T) {
	r := NewRunner()
	base := smallParams()
	s := Sweep{
		ID: "mini", Label: "tau",
		Points: []float64{1.4, 1.8},
		Apply: func(p Params, x float64) Params {
			p.TauScale = x
			return p
		},
		Algs: []string{"WATTER-online", "GDP"},
	}
	res, err := (&SweepRunner{Runner: r, Parallel: 1}).Run(s.Jobs(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 4 {
		t.Fatalf("results = %d, want 4", len(res.Results))
	}
	var buf bytes.Buffer
	PrintSweep(&buf, s, base.City, res.Results)
	out := buf.String()
	for _, needle := range []string{"Extra Time", "Unified Cost", "Service Rate", "Running Time", "WATTER-online", "GDP", "1.4", "1.8"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("table missing %q:\n%s", needle, out)
		}
	}
}

// TestTauShape: the deadline sweep must show the paper's Figure 5 shape —
// larger tau increases extra time for everyone (more slack means longer
// tolerated waits/detours and bigger penalties), and WATTER-expect beats
// WATTER-timeout throughout.
func TestTauShape(t *testing.T) {
	r := NewRunner()
	base := smallParams()
	base.Orders = 600
	base.Workers = 55
	tight := base
	tight.TauScale = 1.2
	loose := base
	loose.TauScale = 1.8
	for _, alg := range []string{"WATTER-expect", "WATTER-timeout"} {
		a, err := r.RunOne(alg, tight)
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.RunOne(alg, loose)
		if err != nil {
			t.Fatal(err)
		}
		if b.Metrics.ServiceRate() < a.Metrics.ServiceRate() {
			t.Fatalf("%s: looser deadlines lowered service rate %.3f -> %.3f",
				alg, a.Metrics.ServiceRate(), b.Metrics.ServiceRate())
		}
	}
	exp1, err := r.RunOne("WATTER-expect", loose)
	if err != nil {
		t.Fatal(err)
	}
	to1, err := r.RunOne("WATTER-timeout", loose)
	if err != nil {
		t.Fatal(err)
	}
	if exp1.Metrics.ExtraTime() > to1.Metrics.ExtraTime() {
		t.Fatalf("expect (%.0f) must beat timeout (%.0f) on extra time at tau=1.8",
			exp1.Metrics.ExtraTime(), to1.Metrics.ExtraTime())
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRunner()
	base := smallParams()
	res, err := r.RunOne("WATTER-online", base)
	if err != nil {
		t.Fatal(err)
	}
	res.X = 1.5
	var buf bytes.Buffer
	if err := WriteCSV(&buf, "figX", []*Result{res}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "sweep,city,x,algorithm") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "figX,XIA,1.5,WATTER-online") {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestModelKeyCoversTrainParams(t *testing.T) {
	base := smallParams()
	variants := []func(Params) Params{
		func(p Params) Params { p.Train.GMMComponents = 7; return p },
		func(p Params) Params { p.Train.Omega = 0.9; return p },
		func(p Params) Params { p.Train.Hidden = []int{8}; return p },
		func(p Params) Params { p.Train.TrainSteps = 9; return p },
		func(p Params) Params { p.Train.HistoricalOrders = 9; return p },
		func(p Params) Params { p.GridN = 7; return p },
		func(p Params) Params { p.TickEvery = 7; return p },
		func(p Params) Params { p.TauScale = 1.99; return p },
		// Floats closer than any fixed number of decimals: each trains a
		// different network, so each needs its own key.
		func(p Params) Params { p.Train.Omega += 0.0004; return p },
		func(p Params) Params { p.TauScale += 0.001; return p },
		func(p Params) Params { p.Eta += 0.001; return p },
		func(p Params) Params { p.TickEvery += 0.4; return p },
	}
	for i, v := range variants {
		if modelKey(v(base)) == modelKey(base) {
			t.Fatalf("variant %d does not change the model cache key", i)
		}
	}
}

// TestTrainLogsGMMFallback: a historical day that serves fewer than ten
// orders trains on the fixed fallback Gaussian, and the training log line
// names it and why; a day with enough extra times fits the mixture and its
// line names no fallback.
func TestTrainLogsGMMFallback(t *testing.T) {
	for _, c := range []struct {
		history int
		want    string // in the [train] line; "" means no fallback
	}{
		{5, "gmm=fallback(mean 120 s, sd 60 s: "},
		{120, ""},
	} {
		p := tinyParams()
		p.Train.HistoricalOrders = c.history
		var out bytes.Buffer
		r := NewRunner()
		r.Out = &out
		if r.Train(p) == nil {
			t.Fatalf("history %d: training failed", c.history)
		}
		line := out.String()
		if !strings.HasPrefix(line, "[train XIA]") {
			t.Fatalf("history %d: log %q has no training line", c.history, line)
		}
		if c.want == "" {
			if strings.Contains(line, "fallback") {
				t.Fatalf("history %d: %q names a fallback after a real fit", c.history, line)
			}
			continue
		}
		if !strings.Contains(line, c.want) || !strings.Contains(line, "need 10)") {
			t.Fatalf("history %d: %q does not name the fallback and its reason", c.history, line)
		}
	}
}
