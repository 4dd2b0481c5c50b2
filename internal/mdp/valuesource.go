package mdp

import (
	"watter/internal/gridindex"
	"watter/internal/nn"
	"watter/internal/order"
)

// ValueThresholdSource turns a trained value network into the online
// threshold: θ(i) = p(i) - V(s(i, now)), clamped to [0, p(i)] (Section
// VI-A: "we calculate θ(i) as p(i) - Vπ(s(i)_t)"). It is the
// strategy.ThresholdSource behind WATTER-expect.
//
// Net and Feat are shared and read-only; everything a call writes — the
// state vector, the environment snapshot in its tail, the network's pass
// buffers — belongs to the source, so each simulation job needs its own
// source and must call it from one goroutine (the framework's periodic
// check does).
type ValueThresholdSource struct {
	Net  *nn.MLP
	Feat *Featurizer
	// Demand and Supply fetch the live platform distributions; either may
	// be nil (zero features), which keeps the source usable before the
	// simulation starts.
	Demand func() (pickup, dropoff gridindex.Distribution)
	Supply func(now float64) gridindex.Distribution

	// changed is the signal installed by Watch; nil means nothing vouches
	// for Demand and Supply between calls, so every call re-reads them.
	changed func() (pool, fleet uint64)
	state   liveState
	pass    nn.Scratch
}

// Watch installs the change signal for Demand and Supply — the generation
// counters of the pool and the worker index they read — and drops the
// current snapshot (counters restart with a new pool or fleet, so a key
// from the previous run could collide). While now and both counters stand
// still the source reuses the histograms it last fetched.
func (v *ValueThresholdSource) Watch(changed func() (pool, fleet uint64)) {
	v.changed = changed
	v.state.valid = false
}

// SnapshotStats reports how many thresholds the source has computed and how
// many of them had to re-read Demand and Supply.
func (v *ValueThresholdSource) SnapshotStats() (calls, rebuilds uint64) {
	return v.state.observes, v.state.rebuilds
}

// Threshold implements strategy.ThresholdSource.
func (v *ValueThresholdSource) Threshold(o *order.Order, now float64) float64 {
	key := envKey{now: now}
	if v.changed != nil {
		key.pool, key.fleet = v.changed()
	}
	if v.changed == nil || !v.state.fresh(key) {
		var pu, do, sw gridindex.Distribution
		if v.Demand != nil {
			pu, do = v.Demand()
		}
		if v.Supply != nil {
			sw = v.Supply(now)
		}
		v.state.rebuild(v.Feat, key, pu, do, sw)
	}
	val := v.Net.PredictWith(&v.pass, v.state.observe(v.Feat, o, now))
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
