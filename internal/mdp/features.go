// Package mdp models WATTER's dispatch decisions as a Markov Decision
// Process (paper Section VI): each pooled order is an agent whose state is
// a spatio-temporal feature vector; a value network V(s), trained offline
// on simulated experience with a weighted TD + target loss, estimates the
// expected accumulated reward and hence the expected extra-time threshold
// θ(i) = p(i) - V(s(i)).
package mdp

import (
	"watter/internal/gridindex"
	"watter/internal/order"
)

// Featurizer quantizes an order's spatio-temporal environment into the
// state vector st = [sL, sT, sO, sW] (Section VI-A):
//
//	sL: pickup + dropoff region one-hots     (2·C dims)
//	sT: release timeslot + waited slots      (2 dims, normalized)
//	sO: pickup + dropoff demand histograms   (2·C dims)
//	sW: idle-worker supply histogram         (C dims)
//
// where C is the number of grid cells.
type Featurizer struct {
	Index *gridindex.Index
	// SlotSeconds is the time-quantization Δt (paper default 10 s).
	SlotSeconds float64
	// HorizonSeconds normalizes the release timeslot (length of the
	// simulated period).
	HorizonSeconds float64
	// MaxWaitSlots normalizes the waited-slots feature.
	MaxWaitSlots float64
}

// NewFeaturizer returns a featurizer with the paper's Δt = 10 s over the
// given horizon.
func NewFeaturizer(ix *gridindex.Index, horizon float64) *Featurizer {
	return &Featurizer{Index: ix, SlotSeconds: 10, HorizonSeconds: horizon, MaxWaitSlots: 60}
}

// Dim returns the state vector length: 5·C + 2.
func (f *Featurizer) Dim() int { return 5*f.Index.NumCells() + 2 }

// Features builds the state vector for order o at time now given the
// platform's current demand and supply distributions. Distributions may be
// nil (zeros) — useful in unit tests.
func (f *Featurizer) Features(o *order.Order, now float64, pickupDemand, dropoffDemand, supply gridindex.Distribution) []float64 {
	x := make([]float64, f.Dim())
	f.setOrder(x, o, now)
	f.setEnv(x, pickupDemand, dropoffDemand, supply)
	return x
}

// setOrder writes the per-order entries of x — the sL one-hots and sT — and
// returns the two one-hot positions: a caller that reuses x zeroes them
// before the next order, and nothing else in x[:2·C+2] needs resetting.
func (f *Featurizer) setOrder(x []float64, o *order.Order, now float64) (pickupAt, dropoffAt int) {
	c := f.Index.NumCells()
	// sL: one-hot pickup and dropoff regions.
	pickupAt = f.Index.CellOf(o.Pickup)
	dropoffAt = c + f.Index.CellOf(o.Dropoff)
	x[pickupAt] = 1
	x[dropoffAt] = 1
	x[2*c], x[2*c+1] = f.timeFeatures(o, now)
	return pickupAt, dropoffAt
}

// timeFeatures returns sT: the release timeslot and the waited slots, both
// normalized. Waited is clamped to [0, 1]; the slot only from above, so a
// negative release gives a negative slot, and a NaN passes both clamps.
func (f *Featurizer) timeFeatures(o *order.Order, now float64) (slot, waited float64) {
	if f.HorizonSeconds > 0 {
		slot = o.Release / f.HorizonSeconds
		if slot > 1 {
			slot = 1
		}
	}
	waited = (now - o.Release) / f.SlotSeconds / f.MaxWaitSlots
	if waited < 0 {
		waited = 0
	}
	if waited > 1 {
		waited = 1
	}
	return slot, waited
}

// inUnitBox reports whether o's own entries of the state at now — the
// one-hots, which are 1, and sT — lie in [0, 1]; a negative release or a
// NaN anywhere in sT puts it outside.
func (f *Featurizer) inUnitBox(o *order.Order, now float64) bool {
	slot, waited := f.timeFeatures(o, now)
	return slot >= 0 && slot <= 1 && waited >= 0 && waited <= 1
}

// setEnv writes the tick-global entries of x — sO and sW, the 3·C-entry
// suffix every pooled order shares at one instant.
func (f *Featurizer) setEnv(x []float64, pickupDemand, dropoffDemand, supply gridindex.Distribution) {
	c := f.Index.NumCells()
	copyDist(x[2*c+2:3*c+2], pickupDemand)
	copyDist(x[3*c+2:4*c+2], dropoffDemand)
	copyDist(x[4*c+2:5*c+2], supply)
}

// copyDist overwrites dst with src, zero where src is nil or short.
func copyDist(dst []float64, src gridindex.Distribution) {
	clear(dst[copy(dst, src):])
}
