// Benchmarks for the parallel sweep engine: the same 8-cell matrix driven
// sequentially and over the worker pool. BENCH_sweep.json records the ratio
// measured through watterbench -benchsweep (1.59x at parallel = 2 on two cores;
// more cores are unmeasured).
package watter

import (
	"fmt"
	"runtime"
	"testing"

	"watter/internal/dataset"
	"watter/internal/exp"
)

func benchMatrix() exp.Matrix {
	base := benchParams(dataset.CDC())
	return exp.Matrix{
		Base:   base,
		Algs:   []string{"GDP", "GAS", "WATTER-online", "WATTER-timeout"},
		Orders: []int{base.Orders, base.Orders * 5 / 4},
		Seeds:  []int64{1, 2},
	}
}

func benchEngine(b *testing.B, parallel int) {
	jobs := benchMatrix().Jobs()
	b.ReportMetric(float64(len(jobs)), "jobs")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sr := &exp.SweepRunner{Runner: exp.NewRunner(), Parallel: parallel}
		res, err := sr.Run(jobs)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Cells) == 0 {
			b.Fatal("no cells")
		}
	}
}

func BenchmarkSweepSequential(b *testing.B) { benchEngine(b, 1) }

func BenchmarkSweepParallel(b *testing.B) {
	b.Run(fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		benchEngine(b, 0)
	})
}
