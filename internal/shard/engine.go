// Package shard runs the pairwise shareability DPs of one order insert on
// K goroutines. The pool lists the pair tests the coming Insert needs
// (pool.PrewarmPairs), the engine runs them, and the pool merges the results
// in candidate order on the calling goroutine, so every decision — and
// every event — is the one the sequential K = 1 run makes. Nothing else in
// a city's dispatch runs in parallel: the periodic check is one sequential
// pass, as in the paper's Algorithm 1.
package shard

import "sync"

// Stats counts the engine's work over one run.
type Stats struct {
	// Deprecated: always 0 since speculation was removed; deleted with benchmark/'s shard reads (ROADMAP item 1(b)).
	GroupHits uint64
	// Deprecated: always 0 since speculation was removed; deleted with benchmark/'s shard reads (ROADMAP item 1(b)).
	GroupInvalid uint64
	// Deprecated: always 0 since speculation was removed; deleted with benchmark/'s shard reads (ROADMAP item 1(b)).
	GroupMiss uint64
	// Deprecated: always 0 since speculation was removed; deleted with benchmark/'s shard reads (ROADMAP item 1(b)).
	SoloHits uint64
	// Deprecated: always 0 since speculation was removed; deleted with benchmark/'s shard reads (ROADMAP item 1(b)).
	SoloInvalid uint64
	// Deprecated: always 0 since speculation was removed; deleted with benchmark/'s shard reads (ROADMAP item 1(b)).
	SoloMiss uint64
	// PrewarmTasks counts pairwise shareability plans computed through the
	// engine at insert time.
	PrewarmTasks uint64
	// Deprecated: always 0 since speculation was removed; deleted with benchmark/'s shard reads (ROADMAP item 1(b)).
	SlotHandoffs uint64
}

// Engine is the K-goroutine executor behind pool.Exec. It is owned by one
// framework instance and is not safe for concurrent use by several
// simulation goroutines.
type Engine struct {
	k     int
	stats Stats
}

// NewEngine returns a K-goroutine engine; k below 1 means 1.
func NewEngine(k int) *Engine {
	return &Engine{k: max(k, 1)}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats { return e.stats }

// Run implements the pool's parallel executor: tasks are fanned out over
// the engine's K goroutines and Run returns when all complete. Tasks must be
// independent pure computations (the pool's pairwise prewarm plans are);
// their results are merged by the caller afterwards, so scheduling order
// cannot influence any decision.
func (e *Engine) Run(tasks []func()) {
	e.stats.PrewarmTasks += uint64(len(tasks))
	k := min(e.k, len(tasks))
	if k <= 1 {
		for _, t := range tasks {
			t()
		}
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < k; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tasks); i += k {
				tasks[i]()
			}
		}(w)
	}
	for i := 0; i < len(tasks); i += k {
		tasks[i]()
	}
	wg.Wait()
}
