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
// state vector, the environment snapshot in its tail, the θ memo, the
// network's pass buffers — belongs to the source, so each simulation job
// needs its own source and must call it from one goroutine (the framework's
// periodic check does).
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
	// memo holds every θ computed under the snapshot's key, by order ID;
	// refresh empties it whenever the snapshot is rebuilt.
	memo []thetaMemo
	pass nn.Scratch
	// proved is the network whose finiteness finite records.
	proved        *nn.MLP
	finite        bool
	calls, passes uint64
}

// thetaMemo is one θ the source computed under the current snapshot.
type thetaMemo struct {
	id    int
	theta float64
}

// Watch installs the change signal for Demand and Supply — the generation
// counters of the pool and the worker index they read — and drops the
// current snapshot, and with it the θ memo (counters restart with a new
// pool or fleet, so a key from the previous run could collide). While now
// and both counters stand still the source reuses the histograms it last
// fetched and every θ it computed from them.
func (v *ValueThresholdSource) Watch(changed func() (pool, fleet uint64)) {
	v.changed = changed
	v.state.valid = false
}

// SnapshotStats reports how many thresholds the source was asked for, how
// many of them ran the network (the rest came from the memo), and how many
// times it re-read Demand and Supply.
//
//det:api exp's snapshot lockstep tests read these counters through the WATTER-expect algorithm
func (v *ValueThresholdSource) SnapshotStats() (calls, passes, rebuilds uint64) {
	return v.calls, v.passes, v.state.rebuilds
}

// refresh brings the environment snapshot to now, re-reading Demand and
// Supply unless the change signal vouches for the last read, and reports
// whether the snapshot is keyed: whether what is computed from it stays
// valid until the key moves.
func (v *ValueThresholdSource) refresh(now float64) (keyed bool) {
	key := envKey{now: now}
	if v.changed != nil {
		key.pool, key.fleet = v.changed()
		if v.state.fresh(key) {
			return true
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
	v.memo = v.memo[:0]
	return v.changed != nil
}

// Threshold implements strategy.ThresholdSource. θ is a pure function of
// the order and the snapshot's key, and order IDs are unique in the pool
// (whose generation moves on every insert), so a keyed source answers a
// repeated question from its memo.
func (v *ValueThresholdSource) Threshold(o *order.Order, now float64) float64 {
	v.calls++
	keyed := v.refresh(now)
	if keyed {
		for _, m := range v.memo {
			if m.id == o.ID {
				return m.theta
			}
		}
	}
	theta := v.theta(o, now)
	if keyed {
		v.memo = append(v.memo, thetaMemo{o.ID, theta})
	}
	return theta
}

// theta runs the network on o's state at now under the current snapshot.
//
//det:hotpath one network pass per θ the memo cannot answer
func (v *ValueThresholdSource) theta(o *order.Order, now float64) float64 {
	v.passes++
	idx, vals := v.state.observeList(v.Feat, o, now)
	val := v.Net.PredictSparseWith(&v.pass, idx, vals)
	p := o.Penalty()
	theta := p - val
	if theta < 0 {
		theta = 0
	}
	if theta > p {
		theta = p
	}
	return theta
}

// ThresholdRange implements strategy.ThresholdSource. θ is clamped to
// [0, p], so that is the range whenever θ cannot be NaN: p ≥ 0 and V
// finite. V is finite when the network is finite on the unit box
// (nn.MLP.FiniteOnUnitBox, decided once per network) and o's state at now
// lies in that box — its own entries (Featurizer.inUnitBox) and the
// snapshot's, which refresh checks as it records them. A source with no
// change signal claims nothing: checking its snapshot would cost the
// re-read its next Threshold makes anyway.
func (v *ValueThresholdSource) ThresholdRange(o *order.Order, now float64) (lo, hi float64) {
	p := o.Penalty()
	if v.changed == nil || !(p >= 0) || !v.finiteNet() {
		return strategy.Unbounded()
	}
	v.refresh(now)
	if !v.state.inBox || !v.Feat.inUnitBox(o, now) {
		return strategy.Unbounded()
	}
	return 0, p
}

// finiteNet reports whether Net is finite on the unit box, deciding it once
// per network.
func (v *ValueThresholdSource) finiteNet() bool {
	if v.proved != v.Net {
		v.proved, v.finite = v.Net, v.Net.FiniteOnUnitBox()
	}
	return v.finite
}
