package route

import (
	"math/rand"
	"testing"

	"watter/internal/order"
)

// BenchmarkPlanGroupCost times the shareability graph's hot path — the
// cost-only DP over a shared, warm LegStore — by group size and deadline
// slack. The tight arm's groups are mostly infeasible, which is what clique
// validation mostly sees (few states stay reachable); the loose arm's are
// mostly feasible (nearly every valid state is reached and relaxed).
func BenchmarkPlanGroupCost(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		for _, arm := range []struct {
			name string
			tau  float64
		}{{"tight", 1.3}, {"loose", 3.0}} {
			b.Run(arm.name+string(rune('0'+k)), func(b *testing.B) { benchPlanCost(b, k, arm.tau) })
		}
	}
}

var benchCostSink float64

func benchPlanCost(b *testing.B, k int, tau float64) {
	net := testCity()
	p := NewPlanner(net)
	store := NewLegStore(net)
	rng := rand.New(rand.NewSource(1))
	svc := make([]float64, MaxGroupSize)
	groups := make([][]*order.Order, 64)
	id := 0
	for g := range groups {
		// Members drawn from one 9x9 neighbourhood, as the pool's spatial
		// prefilter would pair them.
		cx, cy := rng.Intn(20), rng.Intn(20)
		for i := 0; i < k; i++ {
			pu := net.Node(min(max(cx+rng.Intn(9)-4, 0), 19), min(max(cy+rng.Intn(9)-4, 0), 19))
			do := net.Node(rng.Intn(20), rng.Intn(20))
			if do == pu {
				do = net.Node((rng.Intn(19)+1+int(pu)%20)%20, int(pu)/20)
			}
			id++
			groups[g] = append(groups[g], mk(net, id, pu, do, 0, tau))
		}
		p.PlanGroupCost(groups[g], 0, 4, store, svc) // warm the pair blocks
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cost, _, _ := p.PlanGroupCost(groups[i%len(groups)], 0, 4, store, svc)
		benchCostSink += cost
	}
}
