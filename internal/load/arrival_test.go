package load

import (
	"math"
	"testing"
)

func specs() []ArrivalSpec {
	return []ArrivalSpec{
		{Process: Poisson, Rate: 2, Seed: 7},
		{Process: Surge, Rate: 2, Seed: 7},
		{Process: Pareto, Rate: 2, Seed: 7},
	}
}

// TestArrivalDeterminism pins the harness's root determinism claim: the
// schedule is a pure function of (process, rate, seed) — two generations
// agree bit for bit, for every process family.
func TestArrivalDeterminism(t *testing.T) {
	const horizon = 600
	for _, s := range specs() {
		a, err := s.Times(horizon)
		if err != nil {
			t.Fatalf("%s: %v", s.Process, err)
		}
		b, err := s.Times(horizon)
		if err != nil {
			t.Fatalf("%s: second run: %v", s.Process, err)
		}
		if len(a) != len(b) {
			t.Fatalf("%s: run lengths differ: %d vs %d", s.Process, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s: arrival %d differs bitwise: %v vs %v", s.Process, i, a[i], b[i])
			}
		}
	}
}

// TestArrivalSeedSensitivity guards the other direction: distinct seeds
// must produce distinct schedules (a constant generator would pass the
// determinism test vacuously).
func TestArrivalSeedSensitivity(t *testing.T) {
	for _, s := range specs() {
		a, _ := s.Times(600)
		s2 := s
		s2.Seed = s.Seed + 1
		b, _ := s2.Times(600)
		if len(a) == len(b) {
			same := true
			for i := range a {
				if a[i] != b[i] {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("%s: seeds %d and %d generated identical schedules", s.Process, s.Seed, s2.Seed)
			}
		}
	}
}

// TestArrivalShape checks the schedules are strictly increasing, inside
// the horizon, and land near the configured mean rate (wide tolerance —
// this is a sanity bound, not a statistical test).
func TestArrivalShape(t *testing.T) {
	const horizon = 2000.0
	for _, s := range specs() {
		times, err := s.Times(horizon)
		if err != nil {
			t.Fatalf("%s: %v", s.Process, err)
		}
		last := -1.0
		for i, x := range times {
			if x <= last {
				t.Fatalf("%s: arrival %d not increasing: %v after %v", s.Process, i, x, last)
			}
			if x < 0 || x >= horizon {
				t.Fatalf("%s: arrival %d outside [0, %v): %v", s.Process, i, horizon, x)
			}
			last = x
		}
		// Expected counts: Poisson/Pareto ≈ rate*horizon; surge adds the
		// window excess, (surgeFactor-1) times the middle third.
		expected := s.Rate * horizon
		if s.Process == Surge {
			expected += s.Rate * (surgeFactor - 1) * horizon / 3
		}
		n := float64(len(times))
		if n < expected*0.6 || n > expected*1.6 {
			t.Errorf("%s: %v arrivals, expected about %v", s.Process, n, expected)
		}
	}
}

// TestArrivalValidate exercises the rejection paths.
func TestArrivalValidate(t *testing.T) {
	bad := []ArrivalSpec{
		{Process: "uniform", Rate: 1},
		{Process: Poisson, Rate: 0},
		{Process: Poisson, Rate: math.Inf(1)},
		{Process: Surge, Rate: math.NaN()},
		{Process: Pareto, Rate: -1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v validated but should not", s)
		}
	}
	if _, err := (ArrivalSpec{Process: Poisson, Rate: 1}).Times(0); err == nil {
		t.Error("zero horizon accepted")
	}
}
