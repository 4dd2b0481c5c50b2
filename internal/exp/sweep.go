package exp

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"watter/internal/stats"
)

// Matrix describes an experiment grid: every order count × algorithm
// cell, each replicated once per seed. Empty lists default to Base's value
// (Algs to AlgNames), so a Matrix with only Base set expands to one job per
// algorithm. Every other parameter comes from Base.
type Matrix struct {
	// Base supplies every parameter the lists below don't vary.
	Base Params
	// Algs defaults to AlgNames.
	Algs []string
	// Orders defaults to {Base.Orders}.
	Orders []int
	// Seeds are the replicate seeds per cell; default {Base.Seed}.
	// Replicates share one WATTER-expect model per cell (see replicas).
	Seeds []int64
}

// Job is one executable (algorithm, configuration, seed) cell expansion.
type Job struct {
	// Index is the job's position in the deterministic expansion order;
	// results are reported index-aligned regardless of completion order.
	Index int
	Alg   string
	P     Params
	// X is the varied value of a figure sweep's point (0 for matrix jobs);
	// the job's Result carries it.
	X float64
	// Cell identifies the aggregation cell: every job dimension except the
	// replicate seed.
	Cell string
}

// Jobs expands the matrix into its deterministic job list: orders ×
// algorithms, then seeds innermost so a cell's replicates are adjacent.
func (m Matrix) Jobs() []Job {
	algs := m.Algs
	if len(algs) == 0 {
		algs = AlgNames
	}
	orders := m.Orders
	if len(orders) == 0 {
		orders = []int{m.Base.Orders}
	}
	reps := newReplicas(m.Base, m.Seeds)
	var jobs []Job
	for _, n := range orders {
		for _, alg := range algs {
			p := m.Base
			p.Orders = n
			cell := fmt.Sprintf("%s/%s/n%d/m%d/k%d/tau%.2f", alg, p.City.Name, n, p.Workers, p.MaxCap, p.TauScale)
			jobs = reps.add(jobs, Job{Alg: alg, P: p, Cell: cell})
		}
	}
	return jobs
}

// replicas is the replicate rule both expansions share: the seeds (default
// {base.Seed}) and the one training seed every replicate of a cell uses —
// base's pinned one, else the first seed's — so a cell trains one
// WATTER-expect model however many seeds it runs. The paper's offline stage
// uses historical days, not the evaluation day.
type replicas struct {
	seeds     []int64
	trainSeed int64
}

func newReplicas(base Params, seeds []int64) replicas {
	if len(seeds) == 0 {
		seeds = []int64{base.Seed}
	}
	if base.Train.Seed != 0 {
		return replicas{seeds, base.Train.Seed}
	}
	return replicas{seeds, seeds[0]}
}

// add appends one job per replicate seed of cell job j, indexed in order.
func (r replicas) add(jobs []Job, j Job) []Job {
	for _, seed := range r.seeds {
		j.Index = len(jobs)
		j.P.Seed = seed
		j.P.Train.Seed = r.trainSeed
		jobs = append(jobs, j)
	}
	return jobs
}

// CellSummary aggregates one cell's replicates: the four paper metrics
// summarized across seeds, plus per-replicate wall-clock.
type CellSummary struct {
	Cell string
	Alg  string
	City string
	// Params is the first replicate's configuration (seeds differ per
	// replicate; everything else is cell-constant).
	Params      Params
	Seeds       []int64
	ExtraTime   stats.Summary
	UnifiedCost stats.Summary
	ServiceRate stats.Summary
	RunningTime stats.Summary
	Elapsed     stats.Welford
}

// SweepResult is a full matrix execution: raw per-job results in expansion
// order and per-cell cross-seed summaries.
type SweepResult struct {
	Jobs    []Job
	Results []*Result // index-aligned with Jobs
	Cells   []CellSummary
	// Elapsed is the sweep's wall-clock; with Parallel > 1 it is less than
	// the sum of per-job Elapsed.
	Elapsed time.Duration
}

// SweepRunner executes experiment matrices over a bounded worker pool.
// Parallelism never changes results: each job owns its environment,
// workload and metrics, and the layers shared between jobs (road-network
// distance caches, trained models) are immutable or internally
// synchronized, so per-seed metrics are bit-identical at any Parallel.
type SweepRunner struct {
	Runner *Runner
	// Parallel bounds concurrent jobs; <= 0 means GOMAXPROCS.
	Parallel int
}

// NewSweepRunner wraps a Runner (a fresh one when nil).
func NewSweepRunner(r *Runner) *SweepRunner {
	if r == nil {
		r = NewRunner()
	}
	return &SweepRunner{Runner: r}
}

// Run executes jobs — a Matrix's or a Sweep's expansion — over the worker
// pool and aggregates their cells. Results are index-aligned with jobs and
// carry their job's X; the first error stops the sweep, naming its job.
func (sr *SweepRunner) Run(jobs []Job) (*SweepResult, error) {
	results := make([]*Result, len(jobs))
	start := time.Now() //det:wallclock harness-side sweep timing, reported as SweepResult.Elapsed; never feeds simulation state
	err := sr.forEach(len(jobs), func(i int) error {
		j := jobs[i]
		res, err := sr.Runner.RunOne(j.Alg, j.P)
		if err != nil {
			return fmt.Errorf("job %d (%s seed %d): %w", i, j.Cell, j.P.Seed, err)
		}
		res.X = j.X
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SweepResult{
		Jobs:    jobs,
		Results: results,
		Cells:   aggregateCells(jobs, results),
		Elapsed: time.Since(start), //det:wallclock observability field on the sweep report, outside per-seed metrics
	}, nil
}

// forEach runs exec(0..n-1) over the worker pool, stopping at the first
// error. With an effective parallelism of 1 it degenerates to a plain
// sequential loop on the calling goroutine.
func (sr *SweepRunner) forEach(n int, exec func(i int) error) error {
	parallel := sr.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			if err := exec(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	cancel := make(chan struct{})
	feed := make(chan int)
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				if err := exec(i); err != nil {
					errOnce.Do(func() {
						firstErr = err
						close(cancel)
					})
					return
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		select {
		case feed <- i:
		case <-cancel:
			i = n // stop feeding; drain below
		}
	}
	close(feed)
	wg.Wait()
	return firstErr
}

// aggregateCells folds index-aligned results into per-cell summaries,
// preserving first-appearance cell order.
func aggregateCells(jobs []Job, results []*Result) []CellSummary {
	type acc struct {
		first   int
		seeds   []int64
		series  [4][]float64
		elapsed stats.Welford
	}
	byCell := map[string]*acc{}
	var order []string
	for i, j := range jobs {
		a, ok := byCell[j.Cell]
		if !ok {
			a = &acc{first: i}
			byCell[j.Cell] = a
			order = append(order, j.Cell)
		}
		r := results[i]
		a.seeds = append(a.seeds, j.P.Seed)
		a.series[0] = append(a.series[0], r.Metrics.ExtraTime())
		a.series[1] = append(a.series[1], r.Metrics.UnifiedCost())
		a.series[2] = append(a.series[2], r.Metrics.ServiceRate())
		a.series[3] = append(a.series[3], r.Metrics.RunningTime())
		a.elapsed.Add(r.Elapsed.Seconds())
	}
	cells := make([]CellSummary, 0, len(order))
	for _, key := range order {
		a := byCell[key]
		j := jobs[a.first]
		cells = append(cells, CellSummary{
			Cell:        key,
			Alg:         j.Alg,
			City:        j.P.City.Name,
			Params:      j.P,
			Seeds:       a.seeds,
			ExtraTime:   stats.Summarize(a.series[0]),
			UnifiedCost: stats.Summarize(a.series[1]),
			ServiceRate: stats.Summarize(a.series[2]),
			RunningTime: stats.Summarize(a.series[3]),
			Elapsed:     a.elapsed,
		})
	}
	return cells
}

// ReplicateSeeds returns base, base+1, ... base+n-1 — the conventional
// seed grid for n replicates.
func ReplicateSeeds(base int64, n int) []int64 {
	if n < 1 {
		n = 1
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = base + int64(i)
	}
	return out
}
