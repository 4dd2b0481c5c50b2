package mdp

import (
	"slices"

	"watter/internal/core"
	"watter/internal/gridindex"
	"watter/internal/order"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// Collector wraps the WATTER framework to generate off-policy training
// experience (paper Section VI-B): it simulates the dispatch process under
// a behavior strategy (typically the GMM-threshold strategy), snapshots
// every pooled order's state at each periodic check, and emits wait /
// dispatch / expire transitions into the trainer's replay memory.
type Collector struct {
	Inner *core.Framework
	Feat  *Featurizer
	// Theta supplies θ*(p) for the target loss (the Algorithm 3 output).
	Theta strategy.ThresholdSource
	// Emit receives finished transitions.
	Emit func(Experience)

	env      *sim.Env
	episodes map[int]episode
	// live builds the states. Its environment snapshot is shared by all the
	// survivors of one tick: nothing moves inside OnTick's snapshot loop.
	live liveState
	// pickup, dropoff and supply are the histograms a rebuild reads the
	// pool and the fleet into, allocated once per run.
	pickup, dropoff, supply gridindex.Distribution
}

// episode is one pooled order's trajectory so far: the order (its penalty
// and θ* feed every transition) and its state at each check.
type episode struct {
	o     *order.Order
	snaps []snapshot
}

type snapshot struct {
	state []float64
	time  float64
}

// NewCollector wires a framework, featurizer and threshold source.
func NewCollector(inner *core.Framework, feat *Featurizer, theta strategy.ThresholdSource, emit func(Experience)) *Collector {
	return &Collector{Inner: inner, Feat: feat, Theta: theta, Emit: emit}
}

// Name implements sim.Algorithm.
func (c *Collector) Name() string { return c.Inner.Name() + "+collect" }

// SetTick hands the platform's Δt to the wrapped framework, whose last-call
// horizon depends on it.
func (c *Collector) SetTick(dt float64) { c.Inner.SetTick(dt) }

// Init implements sim.Algorithm.
func (c *Collector) Init(env *sim.Env) {
	c.env = env
	c.episodes = make(map[int]episode)
	c.live.valid = false // a new pool and fleet restart their generations
	c.pickup, c.dropoff, c.supply = env.Index.NewDistribution(), env.Index.NewDistribution(), env.Index.NewDistribution()
	env.Observe(c.observe)
	c.Inner.Init(env)
}

// OnOrder implements sim.Algorithm: record the initial state s0, then
// delegate.
func (c *Collector) OnOrder(o *order.Order, now float64) {
	c.episodes[o.ID] = episode{o: o, snaps: []snapshot{{state: c.features(o, now), time: now}}}
	c.Inner.OnOrder(o, now)
}

// OnTick implements sim.Algorithm: delegate (dispatches happen inside),
// then snapshot the survivors' new states.
func (c *Collector) OnTick(now float64) {
	c.Inner.OnTick(now)
	pool := c.Inner.Pool()
	for _, id := range pool.OrderIDs() {
		ep := c.episodes[id]
		ep.snaps = append(ep.snaps, snapshot{state: c.features(pool.Order(id), now), time: now})
		c.episodes[id] = ep
	}
}

// Finish implements sim.Algorithm.
func (c *Collector) Finish(now float64) {
	c.Inner.Finish(now)
	// Anything never resolved (shouldn't happen — Finish rejects) is
	// dropped silently.
	c.episodes = map[int]episode{}
}

// features returns a fresh copy of o's state at now (the replay memory
// keeps it), re-reading the pool and the fleet only when either changed
// since the last state or the clock moved.
func (c *Collector) features(o *order.Order, now float64) []float64 {
	p, wi := c.Inner.Pool(), c.env.WIndex
	key := envKey{now: now, pool: p.DemandGeneration(), fleet: wi.Generation()}
	if !c.live.fresh(key) {
		p.FillDemand(c.pickup, c.dropoff)
		wi.FillSupply(c.supply, now)
		c.live.rebuild(c.Feat, key, c.pickup, c.dropoff, c.supply)
	}
	return slices.Clone(c.live.observe(c.Feat, o, now))
}

// observe is the collector's observer on the Env: it closes the episode of
// every order a dispatch served or a rejection dropped.
func (c *Collector) observe(ev sim.Event) {
	switch ev := ev.(type) {
	case sim.GroupDispatched:
		for _, r := range ev.Orders {
			c.onServe(r, ev.Time)
		}
	case sim.OrderRejected:
		c.onReject(ev.Order, ev.Time)
	}
}

// onServe finalizes a dispatched order's episode: wait transitions between
// consecutive snapshots, then a terminal dispatch with reward p - t_d.
func (c *Collector) onServe(r sim.ServiceRecord, now float64) {
	ep := c.episodes[r.OrderID]
	if len(ep.snaps) == 0 {
		return
	}
	o := ep.o
	c.emitWaits(o, ep.snaps)
	last := ep.snaps[len(ep.snaps)-1]
	c.Emit(Experience{
		State:     last.state,
		Act:       Dispatch,
		Reward:    o.Penalty() - r.Detour,
		Penalty:   o.Penalty(),
		ThetaStar: c.theta(o, now),
	})
	delete(c.episodes, r.OrderID)
}

// onReject finalizes an expired order's episode: waits, then a terminal
// expired wait with reward -Δt.
func (c *Collector) onReject(o *order.Order, now float64) {
	snaps := c.episodes[o.ID].snaps
	if len(snaps) == 0 {
		return
	}
	c.emitWaits(o, snaps)
	last := snaps[len(snaps)-1]
	dt := now - last.time
	if dt <= 0 {
		dt = c.Feat.SlotSeconds
	}
	c.Emit(Experience{
		State:     last.state,
		Act:       Wait,
		Reward:    -dt,
		Expired:   true,
		Penalty:   o.Penalty(),
		ThetaStar: c.theta(o, now),
		Dt:        dt,
	})
	delete(c.episodes, o.ID)
}

// emitWaits emits the non-terminal wait transitions s_j -> s_{j+1}.
func (c *Collector) emitWaits(o *order.Order, snaps []snapshot) {
	for j := 0; j+1 < len(snaps); j++ {
		dt := snaps[j+1].time - snaps[j].time
		if dt <= 0 {
			continue
		}
		c.Emit(Experience{
			State:     snaps[j].state,
			Act:       Wait,
			Reward:    -dt,
			Next:      snaps[j+1].state,
			Penalty:   o.Penalty(),
			ThetaStar: c.theta(o, snaps[j].time),
			Dt:        dt,
		})
	}
}

func (c *Collector) theta(o *order.Order, now float64) float64 {
	if c.Theta == nil {
		return 0
	}
	return c.Theta.Threshold(o, now)
}
