package mdp

import "watter/internal/order"

// envKey names one instant of the environment the tick-global block of the
// state is a function of: the clock and the generation counters of the two
// things that can change under it, the pool's demand histograms
// (pool.Pool.DemandGeneration) and the fleet's books
// (gridindex.WorkerIndex.Generation). The clock is part of the key because
// a worker becomes idle when now passes its FreeAt — supply moves with no
// write anywhere, so no counter could report it.
type envKey struct {
	now         float64
	pool, fleet uint64
}

// liveState is one state vector kept in place, split by how often its
// entries change. x[:2·C+2] is per order (sL, sT) and rewritten by every
// observe; x[2·C+2:] is the environment snapshot — sO and sW, identical for
// every pooled order at one instant — and rewritten only by rebuild, which
// the owner calls when the key moved. A periodic check asks for several
// states per distinct environment, so most calls touch four entries.
//
//det:scratch one state buffer per threshold source or collector, touched only by the job's committing goroutine
type liveState struct {
	x                   []float64
	pickupAt, dropoffAt int // one-hots the last observe set
	key                 envKey
	valid               bool
	// observes counts the states built and rebuilds the environment
	// re-reads among them; tests read both to prove the snapshot is neither
	// stale nor vacuous.
	observes, rebuilds uint64
}

// fresh reports whether the snapshot was taken at key.
func (s *liveState) fresh(key envKey) bool { return s.valid && s.key == key }

// rebuild rewrites the environment block from the three histograms and
// records the key they were read at.
func (s *liveState) rebuild(f *Featurizer, key envKey, pickupDemand, dropoffDemand, supply []float64) {
	if len(s.x) != f.Dim() {
		s.x = make([]float64, f.Dim())
		s.pickupAt, s.dropoffAt = 0, 0
	}
	f.setEnv(s.x, pickupDemand, dropoffDemand, supply)
	s.key, s.valid = key, true
	s.rebuilds++
}

// observe returns the state of o at now under the current snapshot. The
// slice is the buffer itself: valid until the next observe or rebuild.
func (s *liveState) observe(f *Featurizer, o *order.Order, now float64) []float64 {
	s.x[s.pickupAt], s.x[s.dropoffAt] = 0, 0
	s.pickupAt, s.dropoffAt = f.setOrder(s.x, o, now)
	s.observes++
	return s.x
}
