package shard

import (
	"sync/atomic"
	"testing"
)

// TestEngineRunExecutesAllTasks: the pool's executor contract — every task
// runs exactly once, at any fan-out.
func TestEngineRunExecutesAllTasks(t *testing.T) {
	eng := NewEngine(4)
	for _, n := range []int{0, 1, 2, 7, 64} {
		var ran atomic.Int64
		counts := make([]atomic.Int32, n)
		tasks := make([]func(), n)
		for i := range tasks {
			i := i
			tasks[i] = func() {
				counts[i].Add(1)
				ran.Add(1)
			}
		}
		eng.Run(tasks)
		if int(ran.Load()) != n {
			t.Fatalf("%d tasks: %d ran", n, ran.Load())
		}
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Fatalf("task %d ran %d times", i, counts[i].Load())
			}
		}
	}
	if got := eng.Stats().PrewarmTasks; got != 0+1+2+7+64 {
		t.Fatalf("PrewarmTasks = %d, want %d", got, 0+1+2+7+64)
	}
}
