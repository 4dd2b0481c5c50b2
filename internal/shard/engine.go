// Package shard is what is left of the insert prewarm, which ran an order
// insert's pairwise shareability DPs on K goroutines. One city's dispatch
// now runs on one goroutine at every K, as the paper's Algorithm 1 does; the
// names below stay only because benchmark/ still compiles against them, and
// go once it stops (CHANGES.md).
package shard

// Stats is the retired engine's counter set.
//
// Deprecated: every field is always 0; kept only for benchmark/ (CHANGES.md).
type Stats struct {
	GroupHits    uint64
	GroupInvalid uint64
	GroupMiss    uint64
	SoloHits     uint64
	SoloInvalid  uint64
	SoloMiss     uint64
	PrewarmTasks uint64
	SlotHandoffs uint64
}

// Engine is the retired K-goroutine executor.
//
// Deprecated: nothing builds one; kept only for benchmark/ (CHANGES.md).
type Engine struct{}
