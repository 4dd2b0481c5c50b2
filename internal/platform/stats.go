package platform

import (
	"watter/internal/pool"
	"watter/internal/shard"
)

// OrderCounts summarizes the platform's order ledger at a point in time.
// Pending orders were admitted but have neither been dispatched nor
// rejected yet (they sit in the pool or in a baseline's schedule).
type OrderCounts struct {
	Submitted int
	Served    int
	Rejected  int
	Pending   int
}

// Stats is the platform's one composite observability snapshot: clock,
// lifecycle state, order ledger, event-bus depth, and the per-subsystem
// counters that used to require reaching into each subsystem separately
// (the sharded dispatch engine, the shareability-graph plan cache). The
// proxy's aggregated admin stats fold snapshots of this same struct, so a
// dashboard reads one shape whether it watches one city or fifty.
type Stats struct {
	// Clock is the simulation time of the last delivered event.
	Clock float64
	// Closed and Paused mirror the platform lifecycle. A closed platform
	// that its owner still believes is running is the HA prober's "wedged
	// city" signal.
	Closed bool
	Paused bool

	Orders OrderCounts

	// EventQueueDepth is the number of published-but-unconsumed events in
	// the bus channel (0 when nothing subscribed); EventQueueCap is the
	// channel's capacity. Depth approaching capacity means the consumer is
	// the bottleneck and feeders are about to block.
	EventQueueDepth int
	EventQueueCap   int
	// EventQueueHighWater is the deepest backlog any emit has observed —
	// the sampled backpressure indicator the load harness reads — and
	// EventBlockedSends counts emits that found the buffer full and
	// stalled the feeder. A nonzero EventBlockedSends is the bus
	// saturation signal: the consumer fell a full buffer behind at least
	// once.
	EventQueueHighWater int
	EventBlockedSends   uint64

	// Shard carries the slot-sharded dispatch engine's speculation
	// counters; ShardActive is false when no engine is running (K = 1, or
	// an algorithm without a shardable check).
	Shard       shard.Stats
	ShardActive bool

	// PoolCache carries the shareability graph's plan-cache counters;
	// PoolCacheActive is false for algorithms without a pool (GDP/GAS).
	PoolCache       pool.CacheStats
	PoolCacheActive bool
}

// Stats returns the composite snapshot. It reads the platform's own state
// plus whatever subsystems the installed algorithm exposes.
func (p *Platform) Stats() Stats {
	m := p.env.Metrics
	st := Stats{
		Clock:  p.stream.Clock(),
		Closed: p.closed,
		Paused: p.paused,
		Orders: OrderCounts{
			Submitted: m.Total,
			Served:    m.Served,
			Rejected:  m.Rejected,
			Pending:   m.Total - m.Served - m.Rejected,
		},
	}
	if p.events != nil {
		st.EventQueueDepth = len(p.events)
		st.EventQueueCap = cap(p.events)
	}
	if p.tap != nil {
		st.EventQueueHighWater = p.tap.highWater
		st.EventBlockedSends = p.tap.blockedSends
	}
	if se, ok := p.stream.Alg().(interface{ ShardEngine() *shard.Engine }); ok {
		if eng := se.ShardEngine(); eng != nil {
			st.Shard = eng.Stats()
			st.ShardActive = true
		}
	}
	if ps, ok := p.stream.Alg().(interface{ Pool() *pool.Pool }); ok {
		if pl := ps.Pool(); pl != nil {
			st.PoolCache = pl.CacheStats()
			st.PoolCacheActive = true
		}
	}
	return st
}

// Merge folds another platform's snapshot into s for fleet-level
// aggregation: counters and queue depths sum, Clock takes the maximum,
// subsystem-active flags OR. Closed ANDs (an aggregate is closed only when
// every member is) while Paused ORs (any paused member makes the fleet
// partially paused — the state an operator wants surfaced).
func (s *Stats) Merge(t Stats) {
	if t.Clock > s.Clock {
		s.Clock = t.Clock
	}
	s.Closed = s.Closed && t.Closed
	s.Paused = s.Paused || t.Paused

	s.Orders.Submitted += t.Orders.Submitted
	s.Orders.Served += t.Orders.Served
	s.Orders.Rejected += t.Orders.Rejected
	s.Orders.Pending += t.Orders.Pending

	s.EventQueueDepth += t.EventQueueDepth
	s.EventQueueCap += t.EventQueueCap
	// High-water is a per-bus peak, not an additive backlog: the fleet
	// watermark is its worst member. Blocked sends are occurrences and sum.
	if t.EventQueueHighWater > s.EventQueueHighWater {
		s.EventQueueHighWater = t.EventQueueHighWater
	}
	s.EventBlockedSends += t.EventBlockedSends

	s.Shard.Ticks += t.Shard.Ticks
	s.Shard.SpecOrders += t.Shard.SpecOrders
	s.Shard.GroupHits += t.Shard.GroupHits
	s.Shard.GroupInvalid += t.Shard.GroupInvalid
	s.Shard.GroupMiss += t.Shard.GroupMiss
	s.Shard.SoloHits += t.Shard.SoloHits
	s.Shard.SoloInvalid += t.Shard.SoloInvalid
	s.Shard.SoloMiss += t.Shard.SoloMiss
	s.Shard.PlanHits += t.Shard.PlanHits
	s.Shard.PrewarmTasks += t.Shard.PrewarmTasks
	s.Shard.SlotHandoffs += t.Shard.SlotHandoffs
	s.ShardActive = s.ShardActive || t.ShardActive

	s.PoolCache.Hits += t.PoolCache.Hits
	s.PoolCache.NegativeHits += t.PoolCache.NegativeHits
	s.PoolCache.Misses += t.PoolCache.Misses
	s.PoolCache.Renewed += t.PoolCache.Renewed
	s.PoolCache.Evicted += t.PoolCache.Evicted
	s.PoolCache.PlansMaterialized += t.PoolCache.PlansMaterialized
	s.PoolCache.PlansReused += t.PoolCache.PlansReused
	s.PoolCache.PairsPruned += t.PoolCache.PairsPruned
	s.PoolCacheActive = s.PoolCacheActive || t.PoolCacheActive
}
