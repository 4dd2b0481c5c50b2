package main

import (
	"math/rand"
	"time"

	"watter/internal/geo"
	"watter/internal/gridindex"
	"watter/internal/mdp"
	"watter/internal/order"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/route"
	"watter/internal/stats"
)

// Layer replays measure the layers below core from outside: each calls a
// layer's exported functions directly, on inputs taken from the instance
// the traced repeat replayed (instance 0). They set metrics in m by name.

// replaySamples caps the operations of one oracle or planner replay, so
// its cost does not grow with the order stream.
const replaySamples = 1000

func usPerOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return d.Seconds() * 1e6 / float64(n)
}

// traceMetrics derives the platform and core metrics from the spans of
// the traced repeat. untracedWall is the median wall of the untraced
// repeats of the same run, at the traced repeat's host speed.
func traceMetrics(tr *tracer, traced *repeat, orders int, untracedWall float64, m map[string]float64) {
	wall := float64(tr.wallNs) / 1e9
	m["trace.overhead_pct"] = (traced.wallS/untracedWall - 1) * 100
	roots := total(tr.durations("platform.submit")) + total(tr.durations("platform.tick")) + total(tr.durations("platform.close"))
	m["trace.root_coverage"] = roots / wall

	m["platform.submit_self_us"] = percentile(tr.selfTimes("platform.submit"), 0.5) * 1e6
	m["platform.tick_self_us"] = percentile(tr.selfTimes("platform.tick"), 0.5) * 1e6
	m["platform.close_ms"] = total(tr.durations("platform.close")) * 1e3
	m["platform.events_per_order"] = float64(tr.events.events) / float64(orders)

	onOrder, onTick := tr.durations("core.on_order"), tr.durations("core.on_tick")
	m["core.on_order_share"] = total(onOrder) / wall
	m["core.on_tick_share"] = total(onTick) / wall
	m["core.on_order_us_p50"] = percentile(onOrder, 0.5) * 1e6
	m["core.on_tick_ms_p50"] = percentile(onTick, 0.5) * 1e3
	m["core.finish_ms"] = total(tr.durations("core.finish")) * 1e3

	m["roadnet.cost_calls_per_order"] = float64(tr.costCalls) / float64(orders)
}

// statsMetrics reads the exact counters the platform keeps: the pool's
// plan cache and the group-size histogram.
func statsMetrics(r *repeat, orders int, m map[string]float64) {
	n := float64(orders)
	pc := r.stats.PoolCache
	m["pool.cache_hit_rate"] = pc.HitRate()
	m["pool.plans_per_order"] = float64(pc.Misses+pc.Renewed) / n
	m["pool.plans_avoided_per_order"] = float64(pc.PlansAvoided()) / n
	m["pool.materialized_per_order"] = float64(pc.PlansMaterialized) / n

	groups := 0
	for _, c := range r.metrics.GroupSizeHist {
		groups += c
	}
	m["sim.mean_group_size"] = r.metrics.AvgGroupSize()
	m["sim.groups_per_order"] = float64(groups) / n
}

// shardMetrics reads the shard engine's speculation counters off the
// sharded arm.
func shardMetrics(r *repeat, orders int, m map[string]float64) {
	if !r.stats.ShardActive {
		return
	}
	st := r.stats.Shard
	hits := st.GroupHits + st.SoloHits
	invalid := st.GroupInvalid + st.SoloInvalid
	if probes := hits + invalid + st.GroupMiss + st.SoloMiss; probes > 0 {
		m["shard.spec_hit_rate"] = float64(hits) / float64(probes)
		m["shard.spec_invalid_rate"] = float64(invalid) / float64(probes)
	}
	m["shard.prewarm_tasks_per_order"] = float64(st.PrewarmTasks) / float64(orders)
	m["shard.slot_handoffs"] = float64(st.SlotHandoffs)
}

// poolReplay drives one pool through the churn Algorithm 1 generates on
// this workload under hold-to-horizon dispatch, without workers: insert
// at release, expire at every check, look up each pooled order's best
// group, and remove a group at its last call.
func poolReplay(w *workload, m map[string]float64) {
	orders := w.orders[0]
	net := w.city.Net
	opt := pool.DefaultOptions()
	opt.Capacity, opt.MaxGroupSize = w.params.MaxCap, w.params.MaxCap
	p := pool.New(route.NewPlanner(net), gridindex.New(net, w.params.GridN), opt)

	var insert, expire, best, remove []time.Duration
	edges, inserted, peak := 0, 0, 0
	horizon := 0.0
	for _, o := range orders {
		if o.Deadline > horizon {
			horizon = o.Deadline
		}
	}
	dt := w.params.TickEvery
	next := 0
	for now := dt; now <= horizon; now += dt {
		for ; next < len(orders) && orders[next].Release < now; next++ {
			o := *orders[next]
			if o.Expired(o.Release) || o.MaxResponse() < 0 {
				continue
			}
			t0 := time.Now()
			edges += p.Insert(&o, o.Release)
			insert = append(insert, time.Since(t0))
			inserted++
		}
		if p.Len() > peak {
			peak = p.Len()
		}
		t0 := time.Now()
		expired := p.ExpireEdges(now)
		expire = append(expire, time.Since(t0))
		for _, id := range expired {
			p.Remove(id, now)
		}
		ids := p.OrderIDs()
		if len(ids) == 0 {
			continue
		}
		// One lookup is tens of nanoseconds, below the clock's grain: time
		// the sweep and keep its per-call mean.
		groups := make([]*order.Group, 0, len(ids))
		t0 = time.Now()
		for _, id := range ids {
			if g, expiry, ok := p.BestGroup(id); ok && expiry < now+dt {
				groups = append(groups, g)
			}
		}
		best = append(best, time.Since(t0)/time.Duration(len(ids)))
		for _, g := range groups {
			live := true
			for _, o := range g.Orders {
				live = live && p.Contains(o.ID)
			}
			if !live {
				continue // a member left with an earlier group this check
			}
			t0 = time.Now()
			p.RemoveGroup(g, now)
			remove = append(remove, time.Since(t0))
		}
	}
	m["pool.insert_us_p50"] = percentile(insert, 0.5) * 1e6
	m["pool.insert_us_p95"] = percentile(insert, 0.95) * 1e6
	if inserted > 0 {
		m["pool.edges_per_insert"] = float64(edges) / float64(inserted)
	}
	m["pool.expire_us_p50"] = percentile(expire, 0.5) * 1e6
	m["pool.best_group_us_p50"] = percentile(best, 0.5) * 1e6
	m["pool.remove_us_p50"] = percentile(remove, 0.5) * 1e6
	m["pool.peak_len"] = float64(peak)
}

// routeReplay times the cost-only route DP on seeded k-subsets of
// release-adjacent orders (the sets a pool would consider), all sharing
// one leg store as a pool's cliques do.
func routeReplay(w *workload, m map[string]float64) {
	orders := w.orders[0]
	const window = 8
	if len(orders) < window {
		return
	}
	planner := route.NewPlanner(w.city.Net)
	legs := route.NewLegStore(w.city.Net)
	rng := rand.New(rand.NewSource(w.params.Seed + 7))
	n := min(len(orders), replaySamples)
	svc := make([]float64, route.MaxGroupSize)
	for _, k := range []int{2, 3, 4} {
		groups := make([][]*order.Order, n)
		nows := make([]float64, n)
		for i := range groups {
			base := rng.Intn(len(orders) - window + 1)
			for _, j := range rng.Perm(window)[:k] {
				o := orders[base+j]
				groups[i] = append(groups[i], o)
				if o.Release > nows[i] {
					nows[i] = o.Release
				}
			}
		}
		feasible := 0
		t0 := time.Now()
		for i, g := range groups {
			if _, _, ok := planner.PlanGroupCost(g, nows[i], w.params.MaxCap, legs, svc); ok {
				feasible++
			}
		}
		d := time.Since(t0)
		suffix := string(rune('0' + k))
		m["route.plan"+suffix+"_us"] = usPerOp(d, n)
		m["route.feasible_share"+suffix] = float64(feasible) / float64(n)
	}
	if hits, fills := legs.Stats(); hits+fills > 0 {
		m["route.legstore_hit_rate"] = float64(hits) / float64(hits+fills)
	}
}

// roadnetReplay times the oracle in the three shapes the dispatcher asks
// it in: one pair (admission's direct cost), the 4x4 block of two orders'
// endpoints (a leg block), and 16 worker locations to one pickup within a
// budget (a worker-probe ring).
func roadnetReplay(w *workload, m map[string]float64) {
	orders := w.orders[0]
	net := w.city.Net
	n := min(len(orders), replaySamples)

	t0 := time.Now()
	for _, o := range orders[:n] {
		net.Cost(o.Pickup, o.Dropoff)
	}
	m["roadnet.cost_us"] = usPerOp(time.Since(t0), n)

	var block [16]float64
	t0 = time.Now()
	for i := 0; i < n; i++ {
		a, b := orders[i], orders[(i+1)%len(orders)]
		locs := [4]geo.NodeID{a.Pickup, a.Dropoff, b.Pickup, b.Dropoff}
		roadnet.FillCostMatrix(net, locs[:], locs[:], block[:])
	}
	m["roadnet.matrix4_us"] = usPerOp(time.Since(t0), n)

	slacks := make([]float64, len(orders))
	for i, o := range orders {
		slacks[i] = o.MaxResponse()
	}
	budget := stats.Percentile(slacks, 50)
	fleet := w.fleet(0)
	var ring [16]geo.NodeID
	var costs [16]float64
	t0 = time.Now()
	for i := 0; i < n; i++ {
		for j := range ring {
			ring[j] = fleet[(i+j)%len(fleet)].Loc
		}
		target := [1]geo.NodeID{orders[i].Pickup}
		roadnet.FillCostMatrixWithin(net, ring[:], target[:], budget, costs[:])
	}
	m["roadnet.ring16_within_us"] = usPerOp(time.Since(t0), n)
}

// gridindexReplay probes a worker index over the initial (all idle) fleet
// with every order's own pickup, release and slack, then times moving
// each worker to its neighbour's location.
func gridindexReplay(w *workload, m map[string]float64) {
	orders := w.orders[0]
	net := w.city.Net
	fleet := w.fleet(0)
	wi := gridindex.NewWorkerIndex(gridindex.New(net, w.params.GridN), net, fleet)
	n := min(len(orders), replaySamples)
	probes := make([]time.Duration, 0, n)
	found := 0
	for _, o := range orders[:n] {
		t0 := time.Now()
		worker, _ := wi.ClosestIdleWithin(o.Pickup, o.Release, o.Riders, o.MaxResponse())
		probes = append(probes, time.Since(t0))
		if worker != nil {
			found++
		}
	}
	m["gridindex.probe_us_p50"] = percentile(probes, 0.5) * 1e6
	m["gridindex.probe_found_share"] = float64(found) / float64(n)

	first := fleet[0].Loc
	t0 := time.Now()
	for i, wk := range fleet {
		if i+1 < len(fleet) {
			wk.Loc = fleet[i+1].Loc
		} else {
			wk.Loc = first
		}
		wi.Update(wk)
	}
	m["gridindex.update_us"] = usPerOp(time.Since(t0), len(fleet))
}

// inferenceReplay times WATTER-expect's per-order threshold (featurize +
// value network) and the network alone, on the workload's orders against
// fixed demand and supply distributions.
func inferenceReplay(w *workload, m map[string]float64) {
	orders := w.orders[0]
	trained := w.runner.Train(w.params) // cached by set-up
	ix := trained.Feat.Index
	pickup, dropoff := ix.NewDistribution(), ix.NewDistribution()
	for _, o := range orders {
		pickup[ix.CellOf(o.Pickup)]++
		dropoff[ix.CellOf(o.Dropoff)]++
	}
	pickup.Normalize()
	dropoff.Normalize()
	supply := gridindex.NewWorkerIndex(ix, w.city.Net, w.fleet(0)).SupplyDistribution(0)
	src := &mdp.ValueThresholdSource{
		Net: trained.Net, Feat: trained.Feat,
		Demand: func() (gridindex.Distribution, gridindex.Distribution) { return pickup, dropoff },
		Supply: func(float64) gridindex.Distribution { return supply },
	}
	n := min(len(orders), replaySamples)
	dt := w.params.TickEvery
	t0 := time.Now()
	for _, o := range orders[:n] {
		src.Threshold(o, o.Release+dt)
	}
	m["mdp.threshold_us"] = usPerOp(time.Since(t0), n)

	states := make([][]float64, n)
	for i, o := range orders[:n] {
		states[i] = trained.Feat.Features(o, o.Release+dt, pickup, dropoff, supply)
	}
	t0 = time.Now()
	for _, x := range states {
		trained.Net.Predict(x)
	}
	m["nn.predict_us"] = usPerOp(time.Since(t0), n)
}
