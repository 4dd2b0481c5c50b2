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
// lifecycle state, order ledger, and the counters of the shareability-graph
// plan cache. The proxy's aggregated admin stats fold snapshots of this same
// struct, so a dashboard reads one shape whether it watches one city or
// fifty.
type Stats struct {
	// Clock is the simulation time of the last delivered event.
	Clock float64
	// Closed mirrors the platform lifecycle. A closed platform that its
	// owner still believes is running is the HA prober's "wedged city"
	// signal.
	Closed bool

	Orders OrderCounts

	// Shard and ShardActive are always zero and false.
	//
	// Deprecated: kept only for benchmark/ (CHANGES.md).
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
		Clock:  p.env.Clock,
		Closed: p.closed,
		Orders: OrderCounts{
			Submitted: m.Total,
			Served:    m.Served,
			Rejected:  m.Rejected,
			Pending:   m.Total - m.Served - m.Rejected,
		},
	}
	if ps, ok := p.alg.(interface{ Pool() *pool.Pool }); ok {
		if pl := ps.Pool(); pl != nil {
			st.PoolCache = pl.CacheStats()
			st.PoolCacheActive = true
		}
	}
	return st
}

// Merge folds another platform's snapshot into s for fleet-level
// aggregation: counters sum, Clock takes the maximum, subsystem-active
// flags OR, and Closed ANDs (an aggregate is closed only when every member
// is).
func (s *Stats) Merge(t Stats) {
	if t.Clock > s.Clock {
		s.Clock = t.Clock
	}
	s.Closed = s.Closed && t.Closed

	s.Orders.Submitted += t.Orders.Submitted
	s.Orders.Served += t.Orders.Served
	s.Orders.Rejected += t.Orders.Rejected
	s.Orders.Pending += t.Orders.Pending

	s.Shard.GroupHits += t.Shard.GroupHits
	s.Shard.GroupInvalid += t.Shard.GroupInvalid
	s.Shard.GroupMiss += t.Shard.GroupMiss
	s.Shard.SoloHits += t.Shard.SoloHits
	s.Shard.SoloInvalid += t.Shard.SoloInvalid
	s.Shard.SoloMiss += t.Shard.SoloMiss
	s.Shard.PrewarmTasks += t.Shard.PrewarmTasks
	s.Shard.SlotHandoffs += t.Shard.SlotHandoffs
	s.ShardActive = s.ShardActive || t.ShardActive

	s.PoolCache.Hits += t.PoolCache.Hits
	s.PoolCache.NegativeHits += t.PoolCache.NegativeHits
	s.PoolCache.Misses += t.PoolCache.Misses
	s.PoolCache.Renewed += t.PoolCache.Renewed
	s.PoolCache.Evicted += t.PoolCache.Evicted
	s.PoolCache.PlansMaterialized += t.PoolCache.PlansMaterialized
	s.PoolCache.PairsPruned += t.PoolCache.PairsPruned
	s.PoolCache.PrefixPruned += t.PoolCache.PrefixPruned
	s.PoolCacheActive = s.PoolCacheActive || t.PoolCacheActive
}
