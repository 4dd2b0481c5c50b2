package mdp

import (
	"watter/internal/gridindex"
	"watter/internal/nn"
	"watter/internal/order"
	"watter/internal/strategy"
)

// ValueThresholdSource turns a trained value network into the online
// threshold: θ(i) = p(i) - V(s(i, now)), clamped to [0, p(i)] (Section
// VI-A: "we calculate θ(i) as p(i) - Vπ(s(i)_t)"). It is the
// strategy.ThresholdSource behind WATTER-expect.
//
// Net and Feat are shared and read-only; everything a call writes — the
// state vector, the environment snapshot in its tail, the snapshot's suffix
// sums and estimate memo, the network's pass buffers — belongs to the
// source, so each simulation job needs its own source and must call it from
// one goroutine (the framework's periodic check does).
type ValueThresholdSource struct {
	Net  *nn.MLP
	Feat *Featurizer
	// Demand and Supply fetch the live platform distributions; either may
	// be nil (zero features), which keeps the source usable before the
	// simulation starts. The source copies what they return before calling
	// either again, so they may hand back a buffer they refill each time.
	Demand func() (pickup, dropoff gridindex.Distribution)
	Supply func(now float64) gridindex.Distribution

	// changed is the signal installed by Watch; nil means nothing vouches
	// for Demand and Supply between calls, so every call re-reads them.
	changed func() (pool, fleet uint64)
	state   liveState
	// sums are the snapshot's layer-0 suffix sums (nn.MLP.SuffixSums), empty
	// until the first split pass after a rebuild; memo holds every
	// split-pass value V̂ computed under the snapshot's key, by order ID.
	// refresh empties both whenever the snapshot is rebuilt.
	sums []float64
	memo []estimate
	pass nn.Scratch
	// proved is the network UnitBoxBounds was asked about: finite is its
	// verdict and radius its split-pass radius.
	proved *nn.MLP
	finite bool
	radius float64
	stats  SourceStats
}

// estimate is one split-pass value the source computed under the current
// snapshot.
type estimate struct {
	id  int
	val float64
}

// SourceStats counts what a ValueThresholdSource was asked and what it ran.
type SourceStats struct {
	// Exact counts the thresholds asked for: one exact network pass each.
	Exact uint64
	// Ranges are the ranges asked for; Splits the split passes that
	// answered them (the memo answered the rest, or no range was claimed).
	Ranges, Splits uint64
	// Rebuilds are the times the source re-read Demand and Supply.
	Rebuilds uint64
}

// Watch installs the change signal for Demand and Supply — the generation
// counters of the pool and the worker index they read — and drops the
// current snapshot, and with it the suffix sums and the memo (counters
// restart with a new pool or fleet, so a key from the previous run could
// collide). While now and both counters stand still the source reuses the
// histograms it last fetched and everything it computed from them.
func (v *ValueThresholdSource) Watch(changed func() (pool, fleet uint64)) {
	v.changed = changed
	v.state.valid = false
}

// SnapshotStats reports how many thresholds and ranges the source was asked
// for, how many split passes answered ranges, and how many times it re-read
// Demand and Supply.
//
//det:api exp's snapshot lockstep tests read these counters through the WATTER-expect algorithm
func (v *ValueThresholdSource) SnapshotStats() SourceStats {
	s := v.stats
	s.Rebuilds = v.state.rebuilds
	return s
}

// refresh brings the environment snapshot to now, re-reading Demand and
// Supply unless the change signal vouches for the last read.
func (v *ValueThresholdSource) refresh(now float64) {
	key := envKey{now: now}
	if v.changed != nil {
		key.pool, key.fleet = v.changed()
		if v.state.fresh(key) {
			return
		}
	}
	var pu, do, sw gridindex.Distribution
	if v.Demand != nil {
		pu, do = v.Demand()
	}
	if v.Supply != nil {
		sw = v.Supply(now)
	}
	v.state.rebuild(v.Feat, key, pu, do, sw)
	v.sums = v.sums[:0]
	v.memo = v.memo[:0]
}

// Threshold implements strategy.ThresholdSource: the exact pass, every
// call. The strategy asks for it only when a range could not decide.
func (v *ValueThresholdSource) Threshold(o *order.Order, now float64) float64 {
	v.stats.Exact++
	v.refresh(now)
	return v.theta(o, now)
}

// theta runs the network on o's state at now under the current snapshot.
//
//det:hotpath one exact network pass per θ the range could not spare
func (v *ValueThresholdSource) theta(o *order.Order, now float64) float64 {
	idx, vals, _ := v.state.observeList(v.Feat, o, now)
	p := o.Penalty()
	return clampTheta(p-v.Net.PredictSparseWith(&v.pass, idx, vals), p)
}

// clampTheta clamps p − V to [0, p]. It is monotone: a larger argument
// never gives a smaller result.
func clampTheta(theta, p float64) float64 {
	if theta < 0 {
		theta = 0
	}
	if theta > p {
		theta = p
	}
	return theta
}

// ThresholdRange implements strategy.ThresholdSource from the split pass.
// V̂, o's split-pass value under the snapshot, lies within the network's
// radius r of the exact pass's V (nn.MLP.UnitBoxBounds) wherever the state
// lies in the unit box, so rounding V̂ + r and V̂ − r gives floats on either
// side of V, and p − x and the clamp, both monotone, carry them to
// [clamp(p − (V̂+r)), clamp(p − (V̂−r))] around θ. That holds when V is
// finite — the network is finite on the box, decided once per network, and
// o's state at now lies in the box: its own entries (Featurizer.inUnitBox)
// and the snapshot's, which refresh checks as it records them — and p ≥ 0.
// A source with no change signal claims nothing: checking its snapshot
// would cost the re-read its next Threshold makes anyway.
//
// V̂ is a pure function of the order and the snapshot's key, and order IDs
// are unique in the pool (whose generation moves on every insert), so a
// repeated question is answered from the memo.
func (v *ValueThresholdSource) ThresholdRange(o *order.Order, now float64) (lo, hi float64) {
	v.stats.Ranges++
	p := o.Penalty()
	if v.changed == nil || !(p >= 0) || !v.finiteNet() {
		return strategy.Unbounded()
	}
	v.refresh(now)
	if !v.state.inBox || !v.Feat.inUnitBox(o, now) {
		return strategy.Unbounded()
	}
	val, found := 0.0, false
	for _, e := range v.memo {
		if e.id == o.ID {
			val, found = e.val, true
			break
		}
	}
	if !found {
		val = v.split(o, now)
		v.memo = append(v.memo, estimate{o.ID, val})
	}
	return clampTheta(p-(val+v.radius), p), clampTheta(p-(val-v.radius), p)
}

// split runs the split pass on o's state at now: the snapshot's suffix
// sums, taken on the first split after a rebuild, and o's own entries.
//
//det:hotpath one split pass per V̂ the memo cannot answer
func (v *ValueThresholdSource) split(o *order.Order, now float64) float64 {
	v.stats.Splits++
	idx, vals, own := v.state.observeList(v.Feat, o, now)
	if len(v.sums) == 0 {
		v.sums = v.Net.SuffixSums(v.sums, idx[own:], vals[own:])
	}
	return v.Net.PredictSplit(&v.pass, v.sums, idx[:own], vals[:own])
}

// finiteNet reports whether Net is finite on the unit box, bounding it once
// per network.
func (v *ValueThresholdSource) finiteNet() bool {
	if v.proved != v.Net {
		v.proved = v.Net
		v.radius, v.finite = v.Net.UnitBoxBounds()
	}
	return v.finite
}
