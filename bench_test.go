// Benchmarks regenerating every table/figure of the paper's evaluation at
// reduced scale (the cmd/watterbench tool runs the same sweeps at full
// harness scale). One benchmark per figure and city; "go test -bench=.
// -benchmem" walks the entire evaluation.
package watter

import (
	"fmt"
	"testing"

	"watter/internal/core"
	"watter/internal/dataset"
	"watter/internal/exp"
)

// benchParams returns a small configuration that keeps a full sweep cell
// affordable inside testing.B while preserving the fleet-pressure regime.
func benchParams(city dataset.Profile) exp.Params {
	p := exp.DefaultParams(city)
	p.Orders = 600
	p.Workers = 55
	p.Train.HistoricalOrders = 400
	p.Train.TrainSteps = 300
	return p
}

func benchSweep(b *testing.B, cityName, figID string) {
	profile, err := dataset.ByName(cityName)
	if err != nil {
		b.Fatal(err)
	}
	base := benchParams(profile)
	sweep, err := exp.SweepByID(base, figID)
	if err != nil {
		b.Fatal(err)
	}
	engine := &exp.SweepRunner{Runner: exp.NewRunner(), Parallel: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.Run(sweep.Jobs(base, nil))
		if err != nil {
			b.Fatal(err)
		}
		// Aggregate service rate keeps the work observable and guards
		// against dead-code elimination.
		var rate float64
		for _, r := range res.Results {
			rate += r.Metrics.ServiceRate()
		}
		b.ReportMetric(rate/float64(len(res.Results)), "avg-service-rate")
	}
}

// Figure 3: varying the number of orders n.
func BenchmarkFig3NYC(b *testing.B) { benchSweep(b, "nyc", "fig3") }
func BenchmarkFig3CDC(b *testing.B) { benchSweep(b, "cdc", "fig3") }
func BenchmarkFig3XIA(b *testing.B) { benchSweep(b, "xia", "fig3") }

// Figure 4: varying the number of workers m.
func BenchmarkFig4NYC(b *testing.B) { benchSweep(b, "nyc", "fig4") }
func BenchmarkFig4CDC(b *testing.B) { benchSweep(b, "cdc", "fig4") }
func BenchmarkFig4XIA(b *testing.B) { benchSweep(b, "xia", "fig4") }

// Figure 5: varying the deadline scale tau.
func BenchmarkFig5NYC(b *testing.B) { benchSweep(b, "nyc", "fig5") }
func BenchmarkFig5CDC(b *testing.B) { benchSweep(b, "cdc", "fig5") }
func BenchmarkFig5XIA(b *testing.B) { benchSweep(b, "xia", "fig5") }

// Figure 6: varying the vehicle capacity Kw.
func BenchmarkFig6NYC(b *testing.B) { benchSweep(b, "nyc", "fig6") }
func BenchmarkFig6CDC(b *testing.B) { benchSweep(b, "cdc", "fig6") }
func BenchmarkFig6XIA(b *testing.B) { benchSweep(b, "xia", "fig6") }

// Appendix D/F/G parameter studies and this repo's ablations (CDC only —
// the appendix studies are single-city in spirit).
func BenchmarkGridSizeCDC(b *testing.B) { benchSweep(b, "cdc", "grid") }
func BenchmarkEtaCDC(b *testing.B)      { benchSweep(b, "cdc", "eta") }
func BenchmarkDtCDC(b *testing.B)       { benchSweep(b, "cdc", "dt") }
func BenchmarkGMMKCDC(b *testing.B)     { benchSweep(b, "cdc", "gmm") }
func BenchmarkOmegaCDC(b *testing.B)    { benchSweep(b, "cdc", "omega") }

// replay runs alg over the setup's workload on a fresh, untimed platform.
func replay(b *testing.B, setup *exp.Setup, alg Algorithm) *Metrics {
	b.Helper()
	p, err := setup.Platform(alg, false)
	if err != nil {
		b.Fatal(err)
	}
	m, err := p.Replay(setup.Orders)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// Per-algorithm single-run benchmarks (one default cell each): how long
// one simulated evening costs per algorithm.
func benchOne(b *testing.B, alg string) {
	base := benchParams(dataset.CDC())
	runner := exp.NewRunner()
	if alg == "WATTER-expect" {
		runner.Train(base) // warm the model cache outside the timer
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.RunOne(alg, base)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Metrics.ServiceRate(), "service-rate")
	}
}

func BenchmarkAlgGDP(b *testing.B)           { benchOne(b, "GDP") }
func BenchmarkAlgGAS(b *testing.B)           { benchOne(b, "GAS") }
func BenchmarkAlgWATTERExpect(b *testing.B)  { benchOne(b, "WATTER-expect") }
func BenchmarkAlgWATTEROnline(b *testing.B)  { benchOne(b, "WATTER-online") }
func BenchmarkAlgWATTERTimeout(b *testing.B) { benchOne(b, "WATTER-timeout") }

// Ablation: pool maintenance cost vs candidate radius (DESIGN.md §5).
func BenchmarkPoolRadius(b *testing.B) {
	for _, radius := range []int{1, 2, 4, -1} {
		b.Run(fmt.Sprintf("radius=%d", radius), func(b *testing.B) {
			base := benchParams(dataset.CDC())
			runner := exp.NewRunner()
			setup, err := runner.Setup(base)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				alg, err := runner.Build("WATTER-timeout", base)
				if err != nil {
					b.Fatal(err)
				}
				fw := alg.(*core.Framework)
				opt := fw.PoolOpt
				opt.CandidateRadius = radius
				fw.SetPoolOptions(opt)
				replay(b, setup, alg)
			}
		})
	}
}
