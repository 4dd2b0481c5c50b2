package main

import (
	"math"
	"sort"
	"time"
)

// metricDef declares one metric the benchmark emits. The tables below are
// the single source of names, units and directions; BENCHMARK.json must
// agree with them (manifest_test.go), and -compare reads its bounds here.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: share of the parent's median a change may lose
}

// endToEnd is what a user of the dispatcher sees, same names on every
// workload. The driver gates a change on spreads and medians taken across
// runs at different seeds, so the bounds follow the spreads measured that
// way (README, "Noise"): wall-clock metrics spread 1-10 % between quartiles
// and take the contract's maximum, as setup_s must; counts and decision
// quality spread 0.4-5 % and take three times that.
var endToEnd = []metricDef{
	{"orders_per_s", "orders/s", "higher", 0.25},
	{"cpu_ms_per_order", "ms", "lower", 0.25},
	{"submit_p50_us", "us", "lower", 0.25},
	{"submit_p95_us", "us", "lower", 0.25},
	{"tick_p50_ms", "ms", "lower", 0.25},
	{"tick_p95_ms", "ms", "lower", 0.25},
	{"allocs_per_order", "count", "lower", 0.15},
	{"bytes_per_order", "B", "lower", 0.15},
	{"service_rate", "fraction", "higher", 0.10},
	{"extra_time_per_order_s", "s", "lower", 0.10},
	{"unified_cost_per_order_s", "s", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is measured in the traced run only. A metric of a layer the
// workload does not exercise (shard without a K=2 arm, mdp/nn under
// WATTER-timeout, the hierarchy on a closed-form city) reads 0.
var perLayer = []metricDef{
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.root_coverage", "fraction", "higher", 0},

	{"platform.submit_self_us", "us", "lower", 0},
	{"platform.tick_self_us", "us", "lower", 0},
	{"platform.close_ms", "ms", "lower", 0},
	{"platform.events_per_order", "count", "lower", 0},

	{"core.on_order_share", "fraction", "lower", 0},
	{"core.on_tick_share", "fraction", "lower", 0},
	{"core.on_order_us_p50", "us", "lower", 0},
	{"core.on_tick_ms_p50", "ms", "lower", 0},
	{"core.finish_ms", "ms", "lower", 0},

	{"pool.cache_hit_rate", "fraction", "higher", 0},
	{"pool.plans_per_order", "count", "lower", 0},
	{"pool.plans_avoided_per_order", "count", "higher", 0},
	{"pool.materialized_per_order", "count", "lower", 0},
	{"pool.insert_us_p50", "us", "lower", 0},
	{"pool.insert_us_p95", "us", "lower", 0},
	{"pool.edges_per_insert", "count", "lower", 0},
	{"pool.expire_us_p50", "us", "lower", 0},
	{"pool.best_group_us_p50", "us", "lower", 0},
	{"pool.remove_us_p50", "us", "lower", 0},
	{"pool.peak_len", "count", "lower", 0},

	{"route.plan2_us", "us", "lower", 0},
	{"route.plan3_us", "us", "lower", 0},
	{"route.plan4_us", "us", "lower", 0},
	{"route.feasible_share2", "fraction", "higher", 0},
	{"route.feasible_share3", "fraction", "higher", 0},
	{"route.feasible_share4", "fraction", "higher", 0},
	{"route.legstore_hit_rate", "fraction", "higher", 0},

	{"roadnet.build_s", "s", "lower", 0},
	{"roadnet.ch_build_s", "s", "lower", 0},
	{"roadnet.heap_mb", "MB", "lower", 0},
	{"roadnet.cost_us", "us", "lower", 0},
	{"roadnet.matrix4_us", "us", "lower", 0},
	{"roadnet.ring16_within_us", "us", "lower", 0},
	{"roadnet.cost_calls_per_order", "count", "lower", 0},

	{"gridindex.probe_us_p50", "us", "lower", 0},
	{"gridindex.probe_found_share", "fraction", "higher", 0},
	{"gridindex.update_us", "us", "lower", 0},

	{"mdp.threshold_us", "us", "lower", 0},
	{"nn.predict_us", "us", "lower", 0},
	{"exp.train_s", "s", "lower", 0},
	{"dataset.generate_s", "s", "lower", 0},

	{"shard.spec_hit_rate", "fraction", "higher", 0},
	{"shard.spec_invalid_rate", "fraction", "lower", 0},
	{"shard.prewarm_tasks_per_order", "count", "lower", 0},
	{"shard.slot_handoffs", "count", "lower", 0},
	{"shard.speedup_vs_k1", "ratio", "higher", 0},
	{"shard.cpu_ratio_vs_k1", "ratio", "lower", 0},

	{"sim.mean_group_size", "count", "higher", 0},
	{"sim.groups_per_order", "count", "lower", 0},
}

// percentile is the nearest-rank q-quantile of ds, in seconds.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i].Seconds()
}

func total(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum.Seconds()
}
