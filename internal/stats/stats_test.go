package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	want := math.Sqrt(2.5) // sample variance of 1..5 is 2.5
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Fatalf("stddev = %v, want %v", s.StdDev, want)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.StdDev != 0 || s.CI95() != 0 || s.Median != 7 {
		t.Fatalf("single-sample summary = %+v", s)
	}
}

func TestSummarizePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Summarize(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40}
	cases := map[float64]float64{0: 10, 100: 40, 50: 25, 25: 17.5}
	for p, want := range cases {
		if got := Percentile(xs, p); math.Abs(got-want) > 1e-12 {
			t.Fatalf("P%v = %v, want %v", p, got, want)
		}
	}
	// Input must not be mutated (sorted copy).
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 {
		t.Fatal("percentile mutated input")
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 10
	}
	f := func(a, b uint8) bool {
		pa := float64(a) / 255 * 100
		pb := float64(b) / 255 * 100
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(xs, pa) <= Percentile(xs, pb)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanBracketsProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 &&
			s.Min <= s.Median && s.Median <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWelfordMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 137)
	for i := range xs {
		xs[i] = rng.NormFloat64()*40 + 7
	}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	s := Summarize(xs)
	if w.n != s.N {
		t.Fatalf("welford = %+v, summary = %+v", w, s)
	}
	if math.Abs(w.Mean()-s.Mean) > 1e-9 || math.Abs(w.StdDev()-s.StdDev) > 1e-9 {
		t.Fatalf("mean/stddev drift: %v/%v vs %v/%v", w.Mean(), w.StdDev(), s.Mean, s.StdDev)
	}
	if math.Abs(w.CI95()-s.CI95()) > 1e-9 {
		t.Fatalf("ci95 drift: %v vs %v", w.CI95(), s.CI95())
	}
}

func TestWelfordZeroValue(t *testing.T) {
	var w Welford
	if w.n != 0 || w.Mean() != 0 || w.StdDev() != 0 || w.CI95() != 0 {
		t.Fatalf("zero value not empty: %+v", w)
	}
	w.Add(5)
	if w.n != 1 || w.Mean() != 5 || w.StdDev() != 0 || w.CI95() != 0 {
		t.Fatalf("one observation into the zero value: %+v", w)
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	mk := func(n int) Summary {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		return Summarize(xs)
	}
	small, big := mk(10), mk(1000)
	if big.CI95() >= small.CI95() {
		t.Fatalf("CI95 did not shrink: n=10 %v vs n=1000 %v", small.CI95(), big.CI95())
	}
}
