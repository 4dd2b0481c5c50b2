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

// orderSlots is the room reserved ahead of the environment's non-zero list
// for an order's own non-zeros: two one-hots, the slot and waited.
const orderSlots = 4

// liveState is one state vector kept in place, split by how often its
// entries change. x[:2·C+2] is per order (sL, sT); x[2·C+2:] is the
// environment snapshot — sO and sW, identical for every pooled order at one
// instant — and rewritten only by rebuild, which the owner calls when the
// key moved. A periodic check asks for several states per distinct
// environment, so most calls touch four entries.
//
// The snapshot is kept twice: dense in x, for the collector, which copies
// whole states into replay memory; and as its non-zero entries in ascending
// index order, idx[orderSlots:] and vals[orderSlots:], for the threshold
// source, whose network passes read nothing else (observeList).
//
//det:scratch one state buffer per threshold source or collector, touched only by the job's committing goroutine
type liveState struct {
	x                   []float64
	pickupAt, dropoffAt int // one-hots the last observe set
	idx                 []int32
	vals                []float64
	// inBox reports that every environment entry lies in [0, 1], the box
	// nn.MLP.UnitBoxBounds reasons over; a NaN or an unnormalized
	// histogram clears it.
	inBox bool
	key   envKey
	valid bool
	// observes counts the dense states built and rebuilds the environment
	// re-reads; tests read both to prove the snapshot is neither stale nor
	// vacuous.
	observes, rebuilds uint64
}

// fresh reports whether the snapshot was taken at key.
func (s *liveState) fresh(key envKey) bool { return s.valid && s.key == key }

// rebuild rewrites the environment block from the three histograms, records
// its non-zero list, and records the key they were read at.
//
//det:hotpath once per environment change; writes only into the state's own buffers
func (s *liveState) rebuild(f *Featurizer, key envKey, pickupDemand, dropoffDemand, supply []float64) {
	if len(s.x) != f.Dim() {
		s.size(f.Dim())
	}
	f.setEnv(s.x, pickupDemand, dropoffDemand, supply)
	s.idx, s.vals = s.idx[:orderSlots], s.vals[:orderSlots]
	s.inBox = true
	for i := 2*f.Index.NumCells() + 2; i < len(s.x); i++ {
		// The same test nn's gather applies: both signed zeros are zero,
		// a NaN is not.
		if v := s.x[i]; v != 0 {
			s.idx = append(s.idx, int32(i))
			s.vals = append(s.vals, v)
			s.inBox = s.inBox && v >= 0 && v <= 1
		}
	}
	s.key, s.valid = key, true
	s.rebuilds++
}

// size allocates the buffers for a dim-entry state; the non-zero list has
// room for the whole state plus the order's reserved head.
//
//det:hotalloc runs once per featurizer; every later rebuild reuses the buffers
func (s *liveState) size(dim int) {
	s.x = make([]float64, dim)
	s.idx = make([]int32, orderSlots, orderSlots+dim)
	s.vals = make([]float64, orderSlots, orderSlots+dim)
	s.pickupAt, s.dropoffAt = 0, 0
}

// observe returns the state of o at now under the current snapshot. The
// slice is the buffer itself: valid until the next observe or rebuild.
func (s *liveState) observe(f *Featurizer, o *order.Order, now float64) []float64 {
	s.x[s.pickupAt], s.x[s.dropoffAt] = 0, 0
	s.pickupAt, s.dropoffAt = f.setOrder(s.x, o, now)
	s.observes++
	return s.x
}

// observeList is observe as the state's non-zero entries in ascending index
// order — exactly the list nn's gather would build from observe's vector:
// the two one-hots (always 1, pickup below C, dropoff below 2·C), the slot
// at 2·C and waited at 2·C+1 when non-zero, then the environment's list —
// and how many of its leading entries are o's own (at most orderSlots): the
// split pass folds those per order over the environment's suffix sums.
// The order's entries are written back to front into the reserved head, so
// the environment's list is never copied. Both slices alias the state: valid
// until the next observeList or rebuild.
//
//det:hotpath the per-call half of the threshold source's state; writes only into the reserved head
func (s *liveState) observeList(f *Featurizer, o *order.Order, now float64) (idx []int32, vals []float64, own int) {
	c := f.Index.NumCells()
	slot, waited := f.timeFeatures(o, now)
	k := orderSlots
	if waited != 0 {
		k--
		s.idx[k], s.vals[k] = int32(2*c+1), waited
	}
	if slot != 0 {
		k--
		s.idx[k], s.vals[k] = int32(2*c), slot
	}
	k--
	s.idx[k], s.vals[k] = int32(c+f.Index.CellOf(o.Dropoff)), 1
	k--
	s.idx[k], s.vals[k] = int32(f.Index.CellOf(o.Pickup)), 1
	return s.idx[k:], s.vals[k:], orderSlots - k
}
