package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// splitCase is one question FuzzSplitRadius asks: a network, an input in
// [0, 1]^n and the index where the input's prefix ends and its suffix
// begins.
type splitCase struct {
	m   *MLP
	x   []float64
	cut int
}

// decodeSplitCase reads a splitCase from bytes, missing bytes read as zero:
//
//	byte 0        weight layers, 1 + b%3
//	bytes 1-2     input width, 1 + (big-endian)%600
//	next L-1      hidden widths, 1 + b%64 each (the output is one unit)
//	next L        per-layer scale exponents: weights and biases are drawn
//	              as N(0, 1)·2^(3·int8(b)), up to about 1e±115
//	next byte     the share of inputs that are zero, b/255
//	next byte     the cut, b % (width + 1)
//	next 8        the seed of the draws
//	the rest      explicit values, 8 bytes each, little-endian float64 bits:
//	              every weight then every bias of each layer, then the
//	              inputs; a parameter that is not finite, or an input
//	              outside [0, 1], falls back to its draw
func decodeSplitCase(data []byte) splitCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	layers := 1 + int(next())%3
	sizes := []int{1 + int(uint16(next())<<8|uint16(next()))%600}
	for l := 1; l < layers; l++ {
		sizes = append(sizes, 1+int(next())%64)
	}
	sizes = append(sizes, 1)
	scales := make([]float64, layers)
	for l := range scales {
		scales[l] = math.Ldexp(1, 3*int(int8(next())))
	}
	zeroShare := float64(next()) / 255
	cut := int(next()) % (sizes[0] + 1)
	var seed [8]byte
	for i := range seed {
		seed[i] = next()
	}
	rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(seed[:]))))
	explicit := func() (float64, bool) {
		if len(data) < 8 {
			return 0, false
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return v, true
	}
	param := func(scale float64) float64 {
		drawn := rng.NormFloat64() * scale
		if v, ok := explicit(); ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
		return drawn
	}
	m := &MLP{sizes: sizes}
	for l := 0; l < layers; l++ {
		w := make([]float64, sizes[l]*sizes[l+1])
		for i := range w {
			w[i] = param(scales[l])
		}
		b := make([]float64, sizes[l+1])
		for i := range b {
			b[i] = param(scales[l])
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, b)
	}
	x := make([]float64, sizes[0])
	for i := range x {
		drawn := rng.Float64()
		if rng.Float64() < zeroShare {
			drawn = 0
		}
		x[i] = drawn
		if v, ok := explicit(); ok && v >= 0 && v <= 1 {
			x[i] = v
		}
	}
	return splitCase{m, x, cut}
}

// FuzzSplitRadius: on every network UnitBoxBounds proves finite, the split
// pass — the suffix's sums from SuffixSums, the prefix through PredictSplit
// — lands within the proved radius of PredictSparseWith, for every input
// in the unit box and every cut, and both are finite. The seed corpus
// (testdata/fuzz/FuzzSplitRadius) holds a round-to-even tie where the two
// folds part by a third of the radius, a layer-0 gap of one ulp that a
// subnormal weight turns into a product tie rounding two ways (only the
// radius's absolute term covers it), the production shape, weights near
// 1e±100, products that underflow, both empty halves, and a network too
// large to prove finite.
func FuzzSplitRadius(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeSplitCase(data)
		r, finite := c.m.UnitBoxBounds()
		if !finite {
			return
		}
		idx, vals := nonZeros(c.x)
		k := 0
		for k < len(idx) && int(idx[k]) < c.cut {
			k++
		}
		var sc Scratch
		exact := c.m.PredictSparseWith(&sc, idx, vals)
		sums := c.m.SuffixSums(nil, idx[k:], vals[k:])
		split := c.m.PredictSplit(&sc, sums, idx[:k], vals[:k])
		if math.IsNaN(exact) || math.IsInf(exact, 0) || math.IsNaN(split) || math.IsInf(split, 0) {
			t.Fatalf("%v proved finite, yet the passes give %v (exact) and %v (split)", c.m.sizes, exact, split)
		}
		if d := math.Abs(split - exact); !(d <= r) {
			t.Fatalf("%v, cut %d of %d non-zeros: split %v, exact %v, apart by %v, radius %v",
				c.m.sizes, k, len(idx), split, exact, d, r)
		}
	})
}

// TestSplitPassAllocatesNothing: the split pass's two halves reuse the
// caller's sums and scratch once both are sized.
func TestSplitPassAllocatesNothing(t *testing.T) {
	m := New([]int{502, 64, 32, 1}, 1)
	idx, vals := nonZeros(liveState(rand.New(rand.NewSource(1)), 502))
	sums := m.SuffixSums(nil, idx[4:], vals[4:])
	var sc Scratch
	m.PredictSplit(&sc, sums, idx[:4], vals[:4])
	if n := testing.AllocsPerRun(100, func() { sums = m.SuffixSums(sums, idx[4:], vals[4:]) }); n != 0 {
		t.Fatalf("SuffixSums allocates %v times per call on sized sums", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.PredictSplit(&sc, sums, idx[:4], vals[:4]) }); n != 0 {
		t.Fatalf("PredictSplit allocates %v times per call on a sized scratch", n)
	}
}
