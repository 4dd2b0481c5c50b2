package gmm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"watter/internal/order"
)

// threeComponents is the fit exp's offline pipeline runs by default.
var threeComponents = FitOptions{K: 3, Seed: 1}

func sampleMixture(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if rng.Float64() < 0.6 {
			out[i] = 100 + rng.NormFloat64()*15
		} else {
			out[i] = 300 + rng.NormFloat64()*30
		}
	}
	return out
}

func TestFitRecoversTwoModes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	samples := sampleMixture(rng, 4000)
	m, err := Fit(samples, FitOptions{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	means := []float64{m.Components[0].Mean, m.Components[1].Mean}
	if means[0] > means[1] {
		means[0], means[1] = means[1], means[0]
	}
	if math.Abs(means[0]-100) > 10 {
		t.Fatalf("low mode mean %v, want ~100", means[0])
	}
	if math.Abs(means[1]-300) > 20 {
		t.Fatalf("high mode mean %v, want ~300", means[1])
	}
	// Mixture weights ~ 0.6 / 0.4.
	var wLow float64
	for _, c := range m.Components {
		if math.Abs(c.Mean-means[0]) < 1 {
			wLow = c.Weight
		}
	}
	if math.Abs(wLow-0.6) > 0.08 {
		t.Fatalf("low-mode weight %v, want ~0.6", wLow)
	}
}

func TestFitImprovesLikelihoodOverSingleGaussian(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	samples := sampleMixture(rng, 2000)
	m1, err := Fit(samples, FitOptions{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Fit(samples, FitOptions{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ll2, ll1 := logLikelihood(m2, samples), logLikelihood(m1, samples); ll2 <= ll1 {
		t.Fatalf("K=2 LL %v should beat K=1 LL %v on bimodal data", ll2, ll1)
	}
}

// pdf evaluates the mixture density at x.
func (m *Model) pdf(x float64) float64 {
	var p float64
	for _, c := range m.Components {
		p += c.Weight * gaussPDF(x, c.Mean, c.StdDev)
	}
	return p
}

// logLikelihood evaluates the total log-likelihood of samples under m.
func logLikelihood(m *Model, samples []float64) float64 {
	var ll float64
	for _, x := range samples {
		ll += math.Log(math.Max(m.pdf(x), 1e-300))
	}
	return ll
}

// mixtureMean returns Σ weight·mean over m's components.
func mixtureMean(m *Model) float64 {
	var mu float64
	for _, c := range m.Components {
		mu += c.Weight * c.Mean
	}
	return mu
}

func TestFitErrors(t *testing.T) {
	if _, err := Fit(nil, threeComponents); err == nil {
		t.Fatal("empty sample set must error")
	}
	if _, err := Fit([]float64{1, math.NaN()}, threeComponents); err == nil {
		t.Fatal("NaN sample must error")
	}
	if _, err := Fit([]float64{math.Inf(1)}, threeComponents); err == nil {
		t.Fatal("Inf sample must error")
	}
	for _, k := range []int{0, -2} {
		if _, err := Fit([]float64{5, 6}, FitOptions{K: k}); err == nil {
			t.Fatalf("K = %d must error", k)
		}
	}
	// Fewer samples than K is allowed (K clamps).
	m, err := Fit([]float64{5, 6}, FitOptions{K: 8})
	if err != nil || len(m.Components) > 2 {
		t.Fatalf("K clamp failed: %v, %v", m, err)
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, err := Fit(sampleMixture(rng, 800), threeComponents)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return m.CDF(lo) <= m.CDF(hi)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if m.CDF(-1e9) > 1e-9 || m.CDF(1e9) < 1-1e-9 {
		t.Fatalf("CDF limits wrong: %v, %v", m.CDF(-1e9), m.CDF(1e9))
	}
}

func TestPDFIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, err := Fit(sampleMixture(rng, 500), threeComponents)
	if err != nil {
		t.Fatal(err)
	}
	// Trapezoid over a wide support.
	var sum float64
	lo, hi, steps := -500.0, 1000.0, 30000
	dx := (hi - lo) / float64(steps)
	for i := 0; i <= steps; i++ {
		w := 1.0
		if i == 0 || i == steps {
			w = 0.5
		}
		sum += w * m.pdf(lo+float64(i)*dx)
	}
	sum *= dx
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("pdf integrates to %v", sum)
	}
}

func TestOptimalThresholdMaximizesGain(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, err := Fit(sampleMixture(rng, 1500), threeComponents)
	if err != nil {
		t.Fatal(err)
	}
	p := 500.0
	star := OptimalThreshold(m, p)
	if star < 0 || star > p {
		t.Fatalf("θ* = %v outside [0, %v]", star, p)
	}
	best := Gain(m, p, star)
	for i := 0; i <= 1000; i++ {
		th := p * float64(i) / 1000
		if g := Gain(m, p, th); g > best+1e-6 {
			t.Fatalf("grid point θ=%v has gain %v > optimizer's %v at θ*=%v", th, g, best, star)
		}
	}
}

func TestOptimalThresholdDegenerate(t *testing.T) {
	m := &Model{Components: []Component{{Weight: 1, Mean: 100, StdDev: 10}}}
	if got := OptimalThreshold(m, 0); got != 0 {
		t.Fatalf("p=0 must give 0, got %v", got)
	}
	if got := OptimalThreshold(m, -5); got != 0 {
		t.Fatalf("negative p must give 0, got %v", got)
	}
}

func TestGradientMatchesGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, err := Fit(sampleMixture(rng, 1000), threeComponents)
	if err != nil {
		t.Fatal(err)
	}
	p := 600.0
	golden := OptimalThreshold(m, p)
	grad := GradientThreshold(m, p, 4000, 0)
	// Compare achieved gains (θ positions can differ on flat plateaus).
	if Gain(m, p, golden)-Gain(m, p, grad) > 0.02*Gain(m, p, golden) {
		t.Fatalf("gradient ascent gain %v far below golden %v",
			Gain(m, p, grad), Gain(m, p, golden))
	}
}

func TestThresholdSourceCachesAndBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, err := Fit(sampleMixture(rng, 500), threeComponents)
	if err != nil {
		t.Fatal(err)
	}
	src := NewThresholdSource(m)
	o := &order.Order{Release: 0, Deadline: 480, DirectCost: 300} // p = 180
	th1 := src.Threshold(o, 0)
	th2 := src.Threshold(o, 50)
	if th1 != th2 {
		t.Fatalf("cache miss changed threshold: %v vs %v", th1, th2)
	}
	if th1 < 0 || th1 > o.Penalty() {
		t.Fatalf("threshold %v outside [0, p]", th1)
	}
	hopeless := &order.Order{Release: 0, Deadline: 100, DirectCost: 300} // p < 0
	if src.Threshold(hopeless, 0) != 0 {
		t.Fatal("negative-penalty order must get θ=0")
	}
}

func TestMeanAndWeights(t *testing.T) {
	m := &Model{Components: []Component{
		{Weight: 0.25, Mean: 0, StdDev: 1},
		{Weight: 0.75, Mean: 100, StdDev: 1},
	}}
	if got := mixtureMean(m); math.Abs(got-75) > 1e-12 {
		t.Fatalf("mixture mean = %v", got)
	}
	// An EM M-step sets Σ w_k μ_k to the sample mean exactly (up to
	// rounding), so a fitted mixture must keep the data's first moment.
	samples := sampleMixture(rand.New(rand.NewSource(3)), 2000)
	fit, err := Fit(samples, threeComponents)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, x := range samples {
		sum += x
	}
	if got, want := mixtureMean(fit), sum/float64(len(samples)); math.Abs(got-want) > 1e-6*want {
		t.Fatalf("fitted mixture mean %v, sample mean %v", got, want)
	}
}

func BenchmarkFitK3(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	samples := sampleMixture(rng, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(samples, threeComponents); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimalThreshold(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m, err := Fit(sampleMixture(rng, 1000), threeComponents)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		OptimalThreshold(m, 200+float64(i%100))
	}
}
