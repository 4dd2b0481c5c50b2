// The pool-radius ablation (DESIGN.md §5). The paper's figure sweeps run
// through cmd/watterbench -fig, and speed is the repository benchmark's
// (go run ./benchmark); the internal/ packages keep their own kernel
// micro-benchmarks.
package watter

import (
	"fmt"
	"testing"

	"watter/internal/core"
	"watter/internal/dataset"
	"watter/internal/exp"
)

// benchParams returns a small configuration that keeps a replay
// affordable inside testing.B while preserving the fleet-pressure regime.
func benchParams(city dataset.Profile) exp.Params {
	p := exp.DefaultParams(city)
	p.Orders = 600
	p.Workers = 55
	return p
}

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
