package mdp

import (
	"math"
	"math/rand"
	"testing"

	"watter/internal/core"
	"watter/internal/gridindex"
	"watter/internal/nn"
	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/pool"
	"watter/internal/roadnet"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// replay runs alg over orders on a platform at the paper's Δt = 10 s.
func replay(t *testing.T, net roadnet.Network, workers []*order.Worker, alg sim.Algorithm, orders []*order.Order, opts ...platform.Option) *sim.Metrics {
	t.Helper()
	p, err := platform.New(net, workers, append([]platform.Option{platform.WithMeasuredTime(false), platform.WithAlgorithm(alg)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Replay(orders)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testIndex() (*gridindex.Index, *roadnet.GridCity) {
	net := roadnet.NewGridCity(20, 20, 100, 10)
	return gridindex.New(net, 5), net
}

func TestFeaturizerLayout(t *testing.T) {
	ix, net := testIndex()
	f := NewFeaturizer(ix, 3600)
	c := ix.NumCells()
	if f.Dim() != 5*c+2 {
		t.Fatalf("dim = %d", f.Dim())
	}
	o := &order.Order{
		ID: 1, Pickup: net.Node(0, 0), Dropoff: net.Node(19, 19),
		Release: 1800, DirectCost: 380, Deadline: 1800 + 600,
	}
	x := f.Features(o, 1850, nil, nil, nil)
	if len(x) != f.Dim() {
		t.Fatalf("len = %d", len(x))
	}
	if x[ix.CellOf(o.Pickup)] != 1 {
		t.Fatal("pickup one-hot missing")
	}
	if x[c+ix.CellOf(o.Dropoff)] != 1 {
		t.Fatal("dropoff one-hot missing")
	}
	if math.Abs(x[2*c]-0.5) > 1e-9 {
		t.Fatalf("release slot = %v, want 0.5", x[2*c])
	}
	wantWait := 50.0 / 10 / 60
	if math.Abs(x[2*c+1]-wantWait) > 1e-9 {
		t.Fatalf("waited = %v, want %v", x[2*c+1], wantWait)
	}
	// All remaining entries zero with nil distributions.
	for i := 2*c + 2; i < len(x); i++ {
		if x[i] != 0 {
			t.Fatalf("expected zero tail, x[%d]=%v", i, x[i])
		}
	}
}

func TestFeaturizerClampsWait(t *testing.T) {
	ix, net := testIndex()
	f := NewFeaturizer(ix, 3600)
	o := &order.Order{ID: 1, Pickup: net.Node(0, 0), Dropoff: net.Node(1, 0), Release: 0}
	x := f.Features(o, 1e9, nil, nil, nil)
	c := ix.NumCells()
	if x[2*c+1] != 1 {
		t.Fatalf("wait clamp failed: %v", x[2*c+1])
	}
}

func TestFeaturizerEmbedsDistributions(t *testing.T) {
	ix, net := testIndex()
	f := NewFeaturizer(ix, 100)
	c := ix.NumCells()
	pu := make(gridindex.Distribution, c)
	do := make(gridindex.Distribution, c)
	sw := make(gridindex.Distribution, c)
	pu[3], do[7], sw[9] = 0.5, 0.25, 0.75
	o := &order.Order{ID: 1, Pickup: net.Node(0, 0), Dropoff: net.Node(1, 0)}
	x := f.Features(o, 0, pu, do, sw)
	if x[2*c+2+3] != 0.5 || x[3*c+2+7] != 0.25 || x[4*c+2+9] != 0.75 {
		t.Fatal("distribution features misplaced")
	}
}

func TestTrainerBlendedTargets(t *testing.T) {
	tr := NewTrainer(4, TrainerConfig{Hidden: []int{64, 32}, Omega: 0.75, Seed: 1})
	// Dispatch: td = reward.
	e := Experience{State: []float64{0, 0, 0, 0}, Act: Dispatch, Reward: 120, Penalty: 200, ThetaStar: 50}
	want := 0.75*120 + 0.25*(200-50)
	if got := tr.blendedTarget(e); math.Abs(got-want) > 1e-9 {
		t.Fatalf("dispatch target = %v, want %v", got, want)
	}
	// Expired wait: td = reward only.
	e = Experience{State: []float64{0, 0, 0, 0}, Act: Wait, Reward: -10, Expired: true, Penalty: 200, ThetaStar: 50, Dt: 10}
	want = 0.75*(-10) + 0.25*150
	if got := tr.blendedTarget(e); math.Abs(got-want) > 1e-9 {
		t.Fatalf("expired target = %v, want %v", got, want)
	}
	// Non-terminal wait uses the target network (γ=1 ⇒ plain bootstrap).
	next := []float64{1, 1, 1, 1}
	vNext := tr.target.Predict(next)
	e = Experience{State: []float64{0, 0, 0, 0}, Act: Wait, Reward: -10, Next: next, Penalty: 200, ThetaStar: 50, Dt: 10}
	want = 0.75*(-10+vNext) + 0.25*150
	if got := tr.blendedTarget(e); math.Abs(got-want) > 1e-9 {
		t.Fatalf("wait target = %v, want %v", got, want)
	}
}

func TestTrainerOmegaZeroRegressesToTheta(t *testing.T) {
	// With ω = 0 the loss is purely the target loss: V must converge to
	// p - θ* regardless of rewards. At the fixed learning rate the error
	// is still above 40 after 6000 steps and under 1 after 10000.
	tr := NewTrainer(2, TrainerConfig{Hidden: []int{16}, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		s := []float64{rng.Float64(), rng.Float64()}
		tr.Add(Experience{State: s, Act: Dispatch, Reward: 1e6, Penalty: 300, ThetaStar: 100})
	}
	tr.Train(10000)
	var worst float64
	for i := 0; i < 50; i++ {
		s := []float64{rng.Float64(), rng.Float64()}
		if d := math.Abs(tr.Network().Predict(s) - 200); d > worst {
			worst = d
		}
	}
	if worst > 25 {
		t.Fatalf("ω=0 should pin V≈200, worst error %v", worst)
	}
}

func TestTrainerReplayRing(t *testing.T) {
	tr := NewTrainer(1, TrainerConfig{Hidden: []int{4}, Seed: 1})
	const extra = 12
	for i := 0; i < ReplayCap+extra; i++ {
		tr.Add(Experience{State: []float64{float64(i)}, Act: Dispatch, Reward: 1})
	}
	if tr.ReplayLen() != ReplayCap {
		t.Fatalf("replay len = %d, want %d", tr.ReplayLen(), ReplayCap)
	}
	// The overflow overwrote the oldest entries, in order.
	for _, c := range []struct{ slot, want int }{
		{0, ReplayCap}, {extra - 1, ReplayCap + extra - 1}, {extra, extra}, {ReplayCap - 1, ReplayCap - 1},
	} {
		if got := tr.replay[c.slot].State[0]; got != float64(c.want) {
			t.Fatalf("replay[%d] holds experience %v, want %d", c.slot, got, c.want)
		}
	}
}

func TestValueThresholdSourceClamps(t *testing.T) {
	ix, net := testIndex()
	f := NewFeaturizer(ix, 100)
	// A fresh random network outputs near 0 => θ ≈ p.
	src := &ValueThresholdSource{Net: nn.New([]int{f.Dim(), 4, 1}, 1), Feat: f}
	o := &order.Order{
		ID: 1, Pickup: net.Node(0, 0), Dropoff: net.Node(5, 0),
		Release: 0, DirectCost: 50, Deadline: 100,
	}
	th := src.Threshold(o, 0)
	if th < 0 || th > o.Penalty() {
		t.Fatalf("threshold %v outside [0, p=%v]", th, o.Penalty())
	}
}

// TestCollectorEmitsEpisodes runs a tiny simulation through the collector
// and checks experience structure: every episode ends with exactly one
// terminal transition, waits chain states, rewards follow the Bellman
// shapes.
func TestCollectorEmitsEpisodes(t *testing.T) {
	net := roadnet.NewGridCity(20, 20, 100, 10)
	ix := gridindex.New(net, 5)
	var exps []Experience
	fw := core.New(strategy.Timeout{}, pool.DefaultOptions())
	feat := NewFeaturizer(ix, 600)
	col := NewCollector(fw, feat, strategy.ConstantThreshold(60), func(e Experience) {
		exps = append(exps, e)
	})

	rng := rand.New(rand.NewSource(3))
	var orders []*order.Order
	for i := 0; i < 40; i++ {
		pu := net.Node(rng.Intn(20), rng.Intn(20))
		do := net.Node(rng.Intn(20), rng.Intn(20))
		if pu == do {
			continue
		}
		direct := net.Cost(pu, do)
		rel := float64(rng.Intn(300))
		orders = append(orders, &order.Order{
			ID: i + 1, Pickup: pu, Dropoff: do, Riders: 1,
			Release: rel, Deadline: rel + 2*direct, WaitLimit: 0.8 * direct,
			DirectCost: direct,
		})
	}
	var workers []*order.Worker
	for i := 0; i < 8; i++ {
		workers = append(workers, &order.Worker{ID: i + 1, Loc: net.Node(rng.Intn(20), rng.Intn(20)), Capacity: 4})
	}
	m := replay(t, net, workers, col, orders)
	if m.Served+m.Rejected != len(orders) {
		t.Fatalf("accounting: %+v", m)
	}
	if len(exps) == 0 {
		t.Fatal("no experiences collected")
	}
	dispatches, expiries, waits := 0, 0, 0
	for _, e := range exps {
		switch {
		case e.Act == Dispatch:
			dispatches++
			if e.Next != nil {
				t.Fatal("dispatch must be terminal")
			}
		case e.Expired:
			expiries++
			if e.Reward >= 0 {
				t.Fatalf("expired reward %v must be negative", e.Reward)
			}
		default:
			waits++
			if e.Next == nil {
				t.Fatal("non-terminal wait must have a next state")
			}
			if e.Reward != -e.Dt {
				t.Fatalf("wait reward %v != -Δt %v", e.Reward, e.Dt)
			}
		}
		if len(e.State) != feat.Dim() {
			t.Fatalf("state dim %d", len(e.State))
		}
		if e.ThetaStar != 60 {
			t.Fatalf("θ* = %v, want 60", e.ThetaStar)
		}
	}
	if dispatches != m.Served {
		t.Fatalf("dispatch experiences %d != served %d", dispatches, m.Served)
	}
	if expiries != m.Rejected {
		t.Fatalf("expiry experiences %d != rejected %d", expiries, m.Rejected)
	}
	if waits == 0 {
		t.Fatal("timeout strategy must generate wait transitions")
	}
}

// TestCollectorForwardsTick: the Collector hands the platform's Δt on to the
// framework it wraps, whose last-call horizon depends on it. Collecting
// experience must not change the run, so under WithTick(5) the collected
// metrics are the bare framework's at Δt = 5, bit for bit.
func TestCollectorForwardsTick(t *testing.T) {
	net := roadnet.NewGridCity(20, 20, 100, 10)
	rng := rand.New(rand.NewSource(8))
	var orders []*order.Order
	for i := 0; i < 120; i++ {
		pu := net.Node(rng.Intn(20), rng.Intn(20))
		do := net.Node(rng.Intn(20), rng.Intn(20))
		if pu == do {
			continue
		}
		direct := net.Cost(pu, do)
		rel := float64(rng.Intn(300))
		orders = append(orders, &order.Order{
			ID: i + 1, Pickup: pu, Dropoff: do, Riders: 1,
			Release: rel, Deadline: rel + 1.5*direct, WaitLimit: 0.8 * direct,
			DirectCost: direct,
		})
	}
	fleet := func() []*order.Worker {
		r := rand.New(rand.NewSource(9))
		var out []*order.Worker
		for i := 0; i < 10; i++ {
			out = append(out, &order.Worker{ID: i + 1, Loc: net.Node(r.Intn(20), r.Intn(20)), Capacity: 4})
		}
		return out
	}
	fw := func() *core.Framework { return core.New(strategy.Timeout{}, pool.DefaultOptions()) }
	bare := replay(t, net, fleet(), fw(), orders, platform.WithTick(5))
	col := NewCollector(fw(), NewFeaturizer(gridindex.New(net, 5), 600), strategy.ConstantThreshold(60), func(Experience) {})
	collected := replay(t, net, fleet(), col, orders, platform.WithTick(5))
	if *collected != *bare {
		t.Fatalf("collector under WithTick(5) diverged from its bare framework:\nbare:      %+v\ncollected: %+v", *bare, *collected)
	}
	if bare.Served == 0 || bare.Rejected == 0 {
		t.Fatalf("degenerate run: %+v", *bare)
	}
}

// TestEndToEndTraining: collect experience, train, and verify the value
// network produces usable thresholds that drive a full simulation.
func TestEndToEndTraining(t *testing.T) {
	net := roadnet.NewGridCity(20, 20, 100, 10)
	ix := gridindex.New(net, 5)
	feat := NewFeaturizer(ix, 600)
	tr := NewTrainer(feat.Dim(), TrainerConfig{Hidden: []int{32}, Omega: 0.5, Seed: 1})

	fw := core.New(strategy.Timeout{}, pool.DefaultOptions())
	col := NewCollector(fw, feat, strategy.ConstantThreshold(80), func(e Experience) { tr.Add(e) })

	rng := rand.New(rand.NewSource(5))
	mkOrders := func(n int, seed int64) []*order.Order {
		r := rand.New(rand.NewSource(seed))
		var out []*order.Order
		for i := 0; i < n; i++ {
			pu := net.Node(r.Intn(20), r.Intn(20))
			do := net.Node(r.Intn(20), r.Intn(20))
			if pu == do {
				continue
			}
			direct := net.Cost(pu, do)
			rel := float64(r.Intn(300))
			out = append(out, &order.Order{
				ID: i + 1, Pickup: pu, Dropoff: do, Riders: 1,
				Release: rel, Deadline: rel + 2*direct, WaitLimit: 0.8 * direct,
				DirectCost: direct,
			})
		}
		return out
	}
	mkWorkers := func(m int) []*order.Worker {
		var out []*order.Worker
		for i := 0; i < m; i++ {
			out = append(out, &order.Worker{ID: i + 1, Loc: net.Node(rng.Intn(20), rng.Intn(20)), Capacity: 4})
		}
		return out
	}
	replay(t, net, mkWorkers(8), col, mkOrders(60, 1))
	if tr.ReplayLen() == 0 {
		t.Fatal("no training data")
	}
	loss := tr.Train(300)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("diverged: loss %v", loss)
	}

	// Use the learned value function online.
	fw2 := core.New(nil, pool.DefaultOptions())
	src := &ValueThresholdSource{Net: tr.Network(), Feat: feat}
	fw2.Decide = &strategy.Threshold{Source: src}
	plat, err := platform.New(net, mkWorkers(8), platform.WithMeasuredTime(false), platform.WithAlgorithm(fw2))
	if err != nil {
		t.Fatal(err)
	}
	src.Demand = func() (gridindex.Distribution, gridindex.Distribution) {
		return demand(fw2.Pool(), plat.Env().Index)
	}
	src.Supply = plat.Env().WIndex.SupplyDistribution
	m, err := plat.Replay(mkOrders(60, 2))
	if err != nil {
		t.Fatal(err)
	}
	if m.Served+m.Rejected == 0 {
		t.Fatal("online run did nothing")
	}
	if m.ServiceRate() < 0.3 {
		t.Fatalf("learned policy service rate %.3f suspiciously low", m.ServiceRate())
	}
}
