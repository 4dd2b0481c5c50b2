package nn

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestForwardShapeAndDeterminism(t *testing.T) {
	m := New([]int{4, 8, 1}, 1)
	x := []float64{0.1, -0.2, 0.3, 0.4}
	y1 := m.Forward(x)
	y2 := m.Forward(x)
	if len(y1) != 1 {
		t.Fatalf("output size %d", len(y1))
	}
	if y1[0] != y2[0] {
		t.Fatal("forward pass not deterministic")
	}
	m2 := New([]int{4, 8, 1}, 1)
	if m2.Predict(x) != m.Predict(x) {
		t.Fatal("same seed must give identical nets")
	}
	m3 := New([]int{4, 8, 1}, 2)
	if m3.Predict(x) == m.Predict(x) {
		t.Fatal("different seeds should differ")
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input size must panic")
		}
	}()
	New([]int{3, 1}, 1).Forward([]float64{1, 2})
}

func TestLearnsLinearFunction(t *testing.T) {
	m := New([]int{2, 16, 1}, 3)
	rng := rand.New(rand.NewSource(4))
	target := func(x []float64) float64 { return 3*x[0] - 2*x[1] + 0.5 }
	var xs [][]float64
	var ys []float64
	for i := 0; i < 256; i++ {
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		xs = append(xs, x)
		ys = append(ys, target(x))
	}
	var last float64
	for epoch := 0; epoch < 400; epoch++ {
		last = m.TrainBatch(xs, ys, 1e-2)
	}
	if last > 0.01 {
		t.Fatalf("failed to fit linear function: mse %v", last)
	}
}

func TestLearnsNonlinearFunction(t *testing.T) {
	m := New([]int{1, 32, 32, 1}, 5)
	rng := rand.New(rand.NewSource(6))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 512; i++ {
		x := rng.Float64()*4 - 2
		xs = append(xs, []float64{x})
		ys = append(ys, math.Sin(x))
	}
	var mse float64
	for epoch := 0; epoch < 600; epoch++ {
		mse = m.TrainBatch(xs, ys, 3e-3)
	}
	if mse > 0.02 {
		t.Fatalf("failed to fit sin: mse %v", mse)
	}
}

func TestGradientCheck(t *testing.T) {
	// Numeric gradient vs backprop on a tiny net.
	m := New([]int{2, 3, 1}, 7)
	x := []float64{0.3, -0.7}
	target := 0.42
	// Analytic gradient via a single TrainBatch with lr captured through
	// parameter delta is awkward; instead check that a training step
	// reduces loss for a small lr — a weaker but meaningful invariant —
	// and that numeric loss matches reported loss.
	lossBefore := sq(m.Predict(x) - target)
	reported := m.TrainBatch([][]float64{x}, []float64{target}, 1e-3)
	if math.Abs(reported-lossBefore) > 1e-9 {
		t.Fatalf("reported pre-update loss %v != %v", reported, lossBefore)
	}
	lossAfter := sq(m.Predict(x) - target)
	if lossAfter >= lossBefore {
		t.Fatalf("training step increased loss: %v -> %v", lossBefore, lossAfter)
	}
}

func sq(v float64) float64 { return v * v }

func TestCloneAndCopyWeights(t *testing.T) {
	m := New([]int{3, 8, 1}, 9)
	c := m.Clone()
	x := []float64{0.1, 0.2, 0.3}
	if c.Predict(x) != m.Predict(x) {
		t.Fatal("clone differs")
	}
	// Train the original; the clone must stay frozen.
	before := c.Predict(x)
	for i := 0; i < 50; i++ {
		m.TrainBatch([][]float64{x}, []float64{5}, 1e-2)
	}
	if c.Predict(x) != before {
		t.Fatal("clone aliases original weights")
	}
	// Refresh the target network.
	c.CopyWeightsFrom(m)
	if c.Predict(x) != m.Predict(x) {
		t.Fatal("CopyWeightsFrom did not sync")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := New([]int{4, 8, 1}, 11)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -1, 0.5, 0.25}
	if got.Predict(x) != m.Predict(x) {
		t.Fatal("round trip changed predictions")
	}
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage must fail to load")
	}
}

// encodeSnapshot writes a snapshot as Save would, without Save's guarantee
// that it describes a real network.
func encodeSnapshot(t testing.TB, s snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// corruptSnapshots are decodable snapshots no network could have written.
// The first is the reported one: it used to load and then panic in Forward
// (slice bounds out of range [:4] with capacity 3).
func corruptSnapshots() map[string]snapshot {
	w := func(n int) []float64 { return make([]float64, n) }
	return map[string]snapshot{
		"short weight row":   {[]int{4, 2, 1}, [][]float64{w(3), w(2)}, [][]float64{w(2), w(1)}},
		"long weight row":    {[]int{4, 2, 1}, [][]float64{w(9), w(2)}, [][]float64{w(2), w(1)}},
		"short biases":       {[]int{4, 2, 1}, [][]float64{w(8), w(2)}, [][]float64{w(1), w(1)}},
		"zero layer":         {[]int{4, 0, 1}, [][]float64{w(0), w(0)}, [][]float64{w(0), w(1)}},
		"negative layer":     {[]int{-4, 2}, [][]float64{w(8)}, [][]float64{w(2)}},
		"one size":           {[]int{4}, nil, nil},
		"missing layer":      {[]int{4, 2, 1}, [][]float64{w(8)}, [][]float64{w(2), w(1)}},
		"missing bias layer": {[]int{4, 2, 1}, [][]float64{w(8), w(2)}, [][]float64{w(2)}},
		"NaN weight":         {[]int{2, 1}, [][]float64{{1, math.NaN()}}, [][]float64{w(1)}},
		"+Inf weight":        {[]int{2, 1}, [][]float64{{math.Inf(1), 1}}, [][]float64{w(1)}},
		"-Inf bias":          {[]int{2, 1}, [][]float64{w(2)}, [][]float64{{math.Inf(-1)}}},
	}
}

func TestLoadRejectsCorruptSnapshots(t *testing.T) {
	for name, s := range corruptSnapshots() {
		m, err := Load(bytes.NewReader(encodeSnapshot(t, s)))
		if err == nil {
			t.Errorf("%s: loaded as %v", name, m.Sizes())
			continue
		}
		if !strings.Contains(err.Error(), "nn: load: corrupt snapshot") {
			t.Errorf("%s: error %q does not say what failed", name, err)
		}
	}
	// A decode failure keeps its cause.
	_, err := Load(bytes.NewReader(nil))
	if !errors.Is(err, io.EOF) {
		t.Errorf("empty input: error %v does not wrap io.EOF", err)
	}
}

// FuzzLoad: any byte string either fails to load or yields a network that
// can be evaluated on an input of its own size and that survives Save ->
// Load bit for bit. The seed corpus (testdata/fuzz/FuzzLoad) holds a real
// snapshot, every corrupt one above and a truncated one.
func FuzzLoad(f *testing.F) {
	var good bytes.Buffer
	if err := New([]int{5, 3, 1}, 1).Save(&good); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		x := make([]float64, m.Sizes()[0])
		for i := range x {
			x[i] = float64(i%3) - 0.5
		}
		want := m.Predict(x)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("save of a loaded network: %v", err)
		}
		again, err := Load(&buf)
		if err != nil {
			t.Fatalf("reload of a saved network: %v", err)
		}
		if !slices.Equal(again.sizes, m.sizes) {
			t.Fatalf("round trip changed sizes %v -> %v", m.sizes, again.sizes)
		}
		for l := range m.weights {
			// Loaded parameters are finite, so == is bit equality up to
			// the sign of zero, and Float64bits settles that.
			if !slices.EqualFunc(again.weights[l], m.weights[l], sameBits) ||
				!slices.EqualFunc(again.biases[l], m.biases[l], sameBits) {
				t.Fatalf("round trip changed layer %d", l)
			}
		}
		if got := again.Predict(x); !sameBits(got, want) {
			t.Fatalf("round trip changed the prediction %v -> %v", want, got)
		}
	})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func TestNumParams(t *testing.T) {
	m := New([]int{4, 8, 1}, 1)
	want := 4*8 + 8 + 8*1 + 1
	if got := m.NumParams(); got != want {
		t.Fatalf("params = %d, want %d", got, want)
	}
}

// BenchmarkForward502 times one pass through the production shape on the
// two inputs that bound it: every entry non-zero, and the occupancy of a
// live WATTER state (about a fifth non-zero, one-hots included).
func BenchmarkForward502(b *testing.B) {
	m := New([]int{502, 64, 32, 1}, 1)
	dense := make([]float64, 502)
	for i := range dense {
		dense[i] = float64(i%7+1) / 7
	}
	for _, arm := range []struct {
		name string
		x    []float64
	}{{"dense", dense}, {"live", liveState(rand.New(rand.NewSource(1)), 502)}} {
		b.Run(arm.name, func(b *testing.B) {
			var sc Scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = m.PredictWith(&sc, arm.x)
			}
		})
	}
}

var benchSink float64

func BenchmarkTrainBatch32(b *testing.B) {
	m := New([]int{502, 64, 32, 1}, 1)
	xs := make([][]float64, 32)
	ys := make([]float64, 32)
	for i := range xs {
		x := make([]float64, 502)
		for j := range x {
			x[j] = float64((i*j)%11) / 11
		}
		xs[i] = x
		ys[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainBatch(xs, ys, 1e-3)
	}
}
