package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The three functions below are the loops mlp.go ran before the sparse
// layer kernel replaced them, kept verbatim (receiver methods renamed, no
// other edit) as the oracle: a plain fold over the whole input, one unit at
// a time, allocating as it goes. Everything the kernel promises is stated
// against them.

func (m *MLP) denseForward(x []float64) []float64 {
	if len(x) != m.sizes[0] {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.sizes[0]))
	}
	act := x
	last := len(m.weights) - 1
	for l := range m.weights {
		in, out := m.sizes[l], m.sizes[l+1]
		next := make([]float64, out)
		w := m.weights[l]
		for o := 0; o < out; o++ {
			s := m.biases[l][o]
			row := w[o*in : (o+1)*in]
			for i, v := range act {
				s += row[i] * v
			}
			if l != last && s < 0 {
				s = 0 // ReLU on hidden layers
			}
			next[o] = s
		}
		act = next
	}
	return act
}

func (m *MLP) denseForwardAll(x []float64) [][]float64 {
	acts := make([][]float64, len(m.sizes))
	acts[0] = x
	last := len(m.weights) - 1
	for l := range m.weights {
		in, out := m.sizes[l], m.sizes[l+1]
		next := make([]float64, out)
		w := m.weights[l]
		for o := 0; o < out; o++ {
			s := m.biases[l][o]
			row := w[o*in : (o+1)*in]
			for i, v := range acts[l] {
				s += row[i] * v
			}
			if l != last && s < 0 {
				s = 0
			}
			next[o] = s
		}
		acts[l+1] = next
	}
	return acts
}

func (m *MLP) denseTrainBatch(xs [][]float64, targets []float64, lr float64) float64 {
	if len(xs) == 0 || len(xs) != len(targets) {
		panic("nn: batch size mismatch")
	}
	m.ensureAdam()
	gradW := make([][]float64, len(m.weights))
	gradB := make([][]float64, len(m.biases))
	for l := range m.weights {
		gradW[l] = make([]float64, len(m.weights[l]))
		gradB[l] = make([]float64, len(m.biases[l]))
	}
	var loss float64
	last := len(m.weights) - 1
	for n, x := range xs {
		acts := m.denseForwardAll(x)
		out := acts[len(acts)-1]
		diff := out[0] - targets[n]
		loss += diff * diff
		// Backprop: delta on output layer (linear): dL/dout = 2*diff / N.
		delta := make([]float64, len(out))
		delta[0] = 2 * diff / float64(len(xs))
		for l := last; l >= 0; l-- {
			in := m.sizes[l]
			out := m.sizes[l+1]
			w := m.weights[l]
			var prevDelta []float64
			if l > 0 {
				prevDelta = make([]float64, in)
			}
			for o := 0; o < out; o++ {
				d := delta[o]
				if d == 0 {
					continue
				}
				gradB[l][o] += d
				row := w[o*in : (o+1)*in]
				grow := gradW[l][o*in : (o+1)*in]
				for i, a := range acts[l] {
					grow[i] += d * a
					if l > 0 {
						prevDelta[i] += d * row[i]
					}
				}
			}
			if l > 0 {
				// ReLU derivative of the previous layer's outputs.
				for i, a := range acts[l] {
					if a <= 0 {
						prevDelta[i] = 0
					}
				}
				delta = prevDelta
			}
		}
	}
	m.adamStep(gradW, gradB, lr)
	return loss / float64(len(xs))
}

// sameFloat is the kernel's equality contract: the same bits, except that a
// zero matches a zero of either sign. Dropping a term w·0 = ±0 from a
// unit's fold leaves every partial sum s unchanged unless s is itself an
// exact zero, where (+0)+(−0) = +0 but −0 alone stays −0 — so a unit's sum
// can differ from the oracle's only in the sign of an exact zero. Nothing
// downstream can tell: ReLU's `s < 0` is false for both, the next layer
// treats both as a zero input (dropped here, a ±0 term there), the loss
// squares the output, backprop's `d == 0` and `a <= 0` hold for both, and
// p − V is p either way. With weights drawn from a continuous distribution
// an exact-zero sum does not occur unless the input is all zero and the
// biases are zero, and there both sides give +0.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

func sameSlice(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !sameFloat(got[i], want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), oracle %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func sameModel(t *testing.T, step int, got, want *MLP) {
	t.Helper()
	for l := range want.weights {
		at := fmt.Sprintf("step %d layer %d ", step, l)
		sameSlice(t, at+"weights", got.weights[l], want.weights[l])
		sameSlice(t, at+"biases", got.biases[l], want.biases[l])
		sameSlice(t, at+"mW", got.mW[l], want.mW[l])
		sameSlice(t, at+"vW", got.vW[l], want.vW[l])
		sameSlice(t, at+"mB", got.mB[l], want.mB[l])
		sameSlice(t, at+"vB", got.vB[l], want.vB[l])
	}
}

type namedInput struct {
	name string
	x    []float64
}

// oracleInputs returns one input of each shape the kernel must handle.
func oracleInputs(rng *rand.Rand, n int) []namedInput {
	zero, dense, oneHot := make([]float64, n), make([]float64, n), make([]float64, n)
	negative, mixed := make([]float64, n), make([]float64, n)
	oneHot[rng.Intn(n)] = 1
	for i := 0; i < n; i++ {
		dense[i] = rng.Float64() + 0.01
		negative[i] = -rng.Float64() - 0.01
		switch rng.Intn(4) {
		case 0:
			mixed[i] = rng.NormFloat64()
		case 1:
			mixed[i] = math.Copysign(0, -1) // a −0 input is a zero input
		}
	}
	return []namedInput{
		{"all-zero", zero}, {"dense", dense}, {"one-hot", oneHot},
		{"negative", negative}, {"mixed", mixed}, {"live", liveState(rng, n)},
	}
}

// liveState imitates the WATTER state vector's occupancy (DESIGN.md §6): two
// one-hots, two scalars and three histograms with about a third of their
// cells occupied — roughly a fifth of the entries non-zero.
func liveState(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	c := (n - 2) / 5
	if c < 1 {
		for i := range x {
			if rng.Intn(5) == 0 {
				x[i] = rng.Float64()
			}
		}
		return x
	}
	x[rng.Intn(c)] = 1
	x[c+rng.Intn(c)] = 1
	x[2*c], x[2*c+1] = rng.Float64(), rng.Float64()
	for i := 2*c + 2; i < n; i++ {
		if rng.Intn(3) == 0 {
			x[i] = rng.Float64() / float64(c)
		}
	}
	return x
}

// oracleShapes has widths on both sides of the kernel's four-unit block and
// the production shape.
var oracleShapes = [][]int{
	{1, 1}, {3, 1}, {5, 3, 1}, {7, 5, 3, 2}, {33, 33, 5, 1}, {16, 4, 8, 1}, {502, 64, 32, 1},
}

func TestForwardMatchesDenseOracle(t *testing.T) {
	for _, sizes := range oracleShapes {
		for seed := int64(1); seed <= 3; seed++ {
			m := New(sizes, seed)
			rng := rand.New(rand.NewSource(seed + 100))
			// Fresh networks have zero biases; give them values so the
			// bias-first start of each fold is exercised.
			for l := range m.biases {
				for o := range m.biases[l] {
					m.biases[l][o] = rng.NormFloat64()
				}
			}
			var sc Scratch
			for _, in := range oracleInputs(rng, sizes[0]) {
				x := in.x
				what := fmt.Sprintf("%v seed %d %s", sizes, seed, in.name)
				want := m.denseForward(x)
				sameSlice(t, what+" Forward", m.Forward(x), want)
				if got := m.PredictWith(&sc, x); !sameFloat(got, want[0]) {
					t.Fatalf("%s PredictWith = %v, oracle %v", what, got, want[0])
				}
				idx, vals := nonZeros(x)
				if got := m.PredictSparseWith(&sc, idx, vals); !sameFloat(got, want[0]) {
					t.Fatalf("%s PredictSparseWith = %v, oracle %v", what, got, want[0])
				}
				// Every layer's output, not just the last: the scratch is
				// what backprop reads.
				acts := m.denseForwardAll(x)
				for l := range sc.acts {
					sameSlice(t, fmt.Sprintf("%s layer %d", what, l), sc.acts[l], acts[l+1])
				}
			}
		}
	}
}

// TestScratchRefitsAcrossNetworks: one scratch handed to networks of
// different shapes re-sizes itself instead of indexing out of range.
func TestScratchRefitsAcrossNetworks(t *testing.T) {
	var sc Scratch
	rng := rand.New(rand.NewSource(1))
	for _, sizes := range append(oracleShapes, oracleShapes...) {
		m := New(sizes, 1)
		x := liveState(rng, sizes[0])
		if got, want := m.PredictWith(&sc, x), m.denseForward(x)[0]; !sameFloat(got, want) {
			t.Fatalf("%v: %v, oracle %v", sizes, got, want)
		}
	}
}

func TestTrainBatchMatchesDenseOracle(t *testing.T) {
	for _, sizes := range oracleShapes {
		for seed := int64(1); seed <= 2; seed++ {
			got, want := New(sizes, seed), New(sizes, seed)
			rng := rand.New(rand.NewSource(seed + 200))
			for step := 1; step <= 12; step++ {
				var xs [][]float64
				var ys []float64
				for _, in := range oracleInputs(rng, sizes[0]) {
					xs = append(xs, in.x)
					ys = append(ys, rng.NormFloat64()*10)
				}
				// Sparse batches are the production case: pad with them.
				for len(xs) < 16 {
					xs = append(xs, liveState(rng, sizes[0]))
					ys = append(ys, rng.NormFloat64()*10)
				}
				rng.Shuffle(len(xs), func(i, j int) {
					xs[i], xs[j] = xs[j], xs[i]
					ys[i], ys[j] = ys[j], ys[i]
				})
				lossGot := got.TrainBatch(xs, ys, 1e-2)
				lossWant := want.denseTrainBatch(xs, ys, 1e-2)
				if !sameFloat(lossGot, lossWant) {
					t.Fatalf("%v seed %d step %d: loss %v, oracle %v", sizes, seed, step, lossGot, lossWant)
				}
				sameModel(t, step, got, want)
			}
		}
	}
}

func TestPredictWithDoesNotAllocate(t *testing.T) {
	m := New([]int{502, 64, 32, 1}, 1)
	x := liveState(rand.New(rand.NewSource(1)), 502)
	var sc Scratch
	m.PredictWith(&sc, x) // sizes the scratch
	if n := testing.AllocsPerRun(100, func() { m.PredictWith(&sc, x) }); n != 0 {
		t.Fatalf("PredictWith allocates %v times per call on a sized scratch", n)
	}
	idx, vals := nonZeros(x)
	if n := testing.AllocsPerRun(100, func() { m.PredictSparseWith(&sc, idx, vals) }); n != 0 {
		t.Fatalf("PredictSparseWith allocates %v times per call on a sized scratch", n)
	}
}

// nonZeros lists x's non-zero entries the way the caller of
// PredictSparseWith must: ascending index, both signed zeros left out.
func nonZeros(x []float64) ([]int32, []float64) {
	var idx []int32
	var vals []float64
	for i, v := range x {
		if v != 0 {
			idx = append(idx, int32(i))
			vals = append(vals, v)
		}
	}
	return idx, vals
}

// TestFiniteOnUnitBox: fresh networks are provably finite on [0, 1]^n, and
// a proof is never wrong — every corner of the box, where a linear fold
// reaches its extremes, and random points inside it give a finite output.
// Networks whose weights can overflow are refused, including one that does
// overflow at a corner and one whose overflow needs the second layer.
func TestFiniteOnUnitBox(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, sizes := range oracleShapes {
		if m := New(sizes, 1); !m.FiniteOnUnitBox() {
			t.Fatalf("%v: a fresh network is not proved finite", sizes)
		}
	}
	corner := New([]int{2, 1}, 4)
	corner.weights[0][0], corner.weights[0][1] = math.MaxFloat64, math.MaxFloat64
	if v := corner.Predict([]float64{1, 1}); !math.IsInf(v, 1) {
		t.Fatalf("fixture: the corner network gives %v at (1, 1), want +Inf", v)
	}
	// Zero weights into the hidden layer: only the biases can overflow.
	bias := New([]int{1, 2, 1}, 6)
	bias.weights[0][0], bias.weights[0][1] = 0, 0
	bias.biases[0][0], bias.biases[0][1] = 1e308, 1e308
	bias.weights[1][0], bias.weights[1][1] = 1, 1
	if v := bias.Predict([]float64{0}); !math.IsInf(v, 1) {
		t.Fatalf("fixture: the bias network gives %v, want +Inf", v)
	}
	for _, c := range []struct {
		name   string
		m      *MLP
		finite bool
	}{
		{"fresh", New([]int{4, 3, 1}, 2), true},
		{"large but bounded", scaled(New([]int{4, 3, 1}, 3), 1e100), true},
		{"overflows at a corner", corner, false},
		{"overflows in layer 1", scaled(New([]int{3, 4, 1}, 5), 1e200), false},
		{"biases overflow", bias, false},
	} {
		if got := c.m.FiniteOnUnitBox(); got != c.finite {
			t.Fatalf("%s: FiniteOnUnitBox = %v, want %v", c.name, got, c.finite)
		}
		if !c.finite {
			continue
		}
		n := c.m.sizes[0]
		for mask := 0; mask < 1<<n; mask++ {
			x := make([]float64, n)
			for i := range x {
				if mask&(1<<i) != 0 {
					x[i] = 1
				}
			}
			if v := c.m.Predict(x); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: proved finite, yet corner %v gives %v", c.name, x, v)
			}
		}
		for k := 0; k < 200; k++ {
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.Float64()
			}
			if v := c.m.Predict(x); math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: proved finite, yet %v gives %v", c.name, x, v)
			}
		}
	}
}

// scaled multiplies every weight and bias of m by k (biases start at zero,
// so they are set to k first).
func scaled(m *MLP, k float64) *MLP {
	for l := range m.weights {
		for i := range m.weights[l] {
			m.weights[l][i] *= k
		}
		for i := range m.biases[l] {
			m.biases[l][i] = k
		}
	}
	return m
}
