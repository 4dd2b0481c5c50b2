// Package nn is a from-scratch dense neural network on the standard
// library: an MLP with ReLU hidden activations and a linear output, trained
// with Adam on mean-squared error. It is the function approximator behind
// WATTER's state-value estimation (paper Section VI-B); at this problem's
// scale a small MLP matches the role the paper's deep network plays.
package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// MLP is a fully connected feedforward network.
type MLP struct {
	sizes []int
	// weights[l][o*in+i] connects layer l input i to output o; biases[l][o].
	weights [][]float64
	biases  [][]float64

	// Adam state (first/second moments), lazily allocated.
	mW, vW [][]float64
	mB, vB [][]float64
	step   int
}

// New creates an MLP with the given layer sizes (at least input and
// output). Weights use He initialization under a deterministic seed.
func New(sizes []int, seed int64) *MLP {
	if len(sizes) < 2 {
		panic("nn: need at least input and output sizes")
	}
	for _, s := range sizes {
		if s < 1 {
			panic("nn: layer sizes must be positive")
		}
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{sizes: append([]int(nil), sizes...)}
	for l := 0; l+1 < len(sizes); l++ {
		in, out := sizes[l], sizes[l+1]
		w := make([]float64, in*out)
		scale := math.Sqrt(2 / float64(in))
		for i := range w {
			w[i] = rng.NormFloat64() * scale
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, make([]float64, out))
	}
	return m
}

// Sizes returns the layer sizes.
func (m *MLP) Sizes() []int { return append([]int(nil), m.sizes...) }

// NumParams returns the total parameter count.
func (m *MLP) NumParams() int {
	n := 0
	for l := range m.weights {
		n += len(m.weights[l]) + len(m.biases[l])
	}
	return n
}

// Scratch is the working memory of one goroutine's passes through a
// network: every layer's output and the non-zero entries of every layer's
// input. The caller owns it — an MLP holds none, because one trained
// network serves concurrent simulation jobs (DESIGN.md §8) — and the zero
// value is ready to use; it sizes itself to the network on first use.
// Slices returned from a pass alias the scratch and are valid until its
// next pass.
type Scratch struct {
	acts [][]float64 // acts[l]: output of layer l
	idx  [][]int32   // idx[l], vals[l]: layer l's non-zero inputs in ascending
	vals [][]float64 // index order, resliced by each pass (cap = layer width)
}

// fit sizes the scratch to the network's layer widths. It allocates only
// on a scratch's first pass through a network.
func (sc *Scratch) fit(sizes []int) {
	layers := len(sizes) - 1
	fits := len(sc.acts) == layers
	for l := 0; fits && l < layers; l++ {
		fits = len(sc.acts[l]) == sizes[l+1] && cap(sc.idx[l]) >= sizes[l]
	}
	if fits {
		return
	}
	sc.acts = make([][]float64, layers)
	sc.idx = make([][]int32, layers)
	sc.vals = make([][]float64, layers)
	for l := 0; l < layers; l++ {
		sc.acts[l] = make([]float64, sizes[l+1])
		sc.idx[l] = make([]int32, sizes[l])
		sc.vals[l] = make([]float64, sizes[l])
	}
}

// gather compacts x's non-zero entries into idx and vals (each with room
// for len(x)) in ascending index order and returns the filled prefixes.
// Both signed zeros count as zero; a NaN does not.
func gather(idx []int32, vals, x []float64) ([]int32, []float64) {
	idx = idx[:len(x)]
	vals = vals[:len(x)]
	n := 0
	for i, v := range x {
		// Store first, advance only on a non-zero: no branch to mispredict
		// on an irregular occupancy pattern.
		idx[n] = int32(i)
		vals[n] = v
		if v != 0 {
			n++
		}
	}
	return idx[:n], vals[:n]
}

// layer is the one fold every pass through the network runs (inference,
// the training forward pass, the target network): for each output unit o,
//
//	out[o] = b[o] + Σ w[o·in+idx[k]]·vals[k]   (k ascending)
//
// clamped at zero when relu is set. The fold-order contract: a unit starts
// from its bias and adds its terms one by one in ascending input index,
// exactly as a loop over the whole input would — no reassociation, no
// fused multiply-add (each product is explicitly converted to float64,
// which the Go spec says rounds it, so no architecture may fuse it into the
// sum), no partial sum shared between calls — and the only terms left out
// are those whose input is exactly zero. With finite weights (New and
// TrainBatch produce them, Load rejects anything else) such a term is ±0,
// and s + ±0 == s unless s is itself a zero, so the result can differ from
// the whole-input fold only in the sign of an exact zero — which ReLU maps
// to a zero, the next layer drops as a zero input, and p − V cannot see. Four units are carried per pass over the inputs:
// their sums are independent, so this changes which additions are in
// flight together, never the order within a unit.
func layer(w, b []float64, in int, idx []int32, vals, out []float64, relu bool) {
	vals = vals[:len(idx)]
	o := 0
	for ; o+4 <= len(out); o += 4 {
		r0 := w[o*in:][:in]
		r1 := w[(o+1)*in:][:in]
		r2 := w[(o+2)*in:][:in]
		r3 := w[(o+3)*in:][:in]
		s0, s1, s2, s3 := b[o], b[o+1], b[o+2], b[o+3]
		for k, i32 := range idx {
			i := int(i32)
			if uint(i) >= uint(in) {
				// One check stands in for the four row bounds checks.
				panic("nn: input index out of range")
			}
			v := vals[k]
			s0 += float64(r0[i] * v)
			s1 += float64(r1[i] * v)
			s2 += float64(r2[i] * v)
			s3 += float64(r3[i] * v)
		}
		if relu {
			if s0 < 0 {
				s0 = 0
			}
			if s1 < 0 {
				s1 = 0
			}
			if s2 < 0 {
				s2 = 0
			}
			if s3 < 0 {
				s3 = 0
			}
		}
		out[o], out[o+1], out[o+2], out[o+3] = s0, s1, s2, s3
	}
	for ; o < len(out); o++ {
		row := w[o*in:][:in]
		s := b[o]
		for k, i := range idx {
			s += float64(row[i] * vals[k])
		}
		if relu && s < 0 {
			s = 0
		}
		out[o] = s
	}
}

// forward runs x through the network inside sc, keeping every layer's
// output and non-zero input list there (backprop reads both), and returns
// the output layer.
func (m *MLP) forward(sc *Scratch, x []float64) []float64 {
	if len(x) != m.sizes[0] {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.sizes[0]))
	}
	sc.fit(m.sizes)
	sc.idx[0], sc.vals[0] = gather(sc.idx[0], sc.vals[0], x)
	return m.pass(sc, sc.idx[0], sc.vals[0])
}

// pass runs layer 0 over the input's non-zero list (idx, vals) and every
// later layer over the gathered output of the one before, inside a fitted
// scratch, and returns the output layer.
func (m *MLP) pass(sc *Scratch, idx []int32, vals []float64) []float64 {
	layer(m.weights[0], m.biases[0], m.sizes[0], idx, vals, sc.acts[0], len(m.weights) > 1)
	return m.upper(sc)
}

// upper runs every layer after the first over the gathered output of the
// one before, inside a scratch whose layer-0 output is filled, and returns
// the output layer.
func (m *MLP) upper(sc *Scratch) []float64 {
	last := len(m.weights) - 1
	for l := 1; l <= last; l++ {
		sc.idx[l], sc.vals[l] = gather(sc.idx[l], sc.vals[l], sc.acts[l-1])
		layer(m.weights[l], m.biases[l], m.sizes[l], sc.idx[l], sc.vals[l], sc.acts[l], l != last)
	}
	return sc.acts[last]
}

// Forward computes the network output for input x.
func (m *MLP) Forward(x []float64) []float64 { return m.forward(new(Scratch), x) }

// Predict returns the first output scalar (value networks have one output).
func (m *MLP) Predict(x []float64) float64 { return m.Forward(x)[0] }

// PredictWith is Predict through the caller's scratch: no allocation once
// the scratch has been sized.
func (m *MLP) PredictWith(sc *Scratch, x []float64) float64 { return m.forward(sc, x)[0] }

// PredictSparseWith is PredictWith for an input the caller already holds as
// its non-zero entries: idx ascending and below the input width, vals[k] the
// value at idx[k], and every entry of the input that is not listed exactly
// zero. That is the list gather would build from the dense input, so the
// result is PredictWith's bit for bit; the caller saves the pass over every
// zero. Layer 0's inputs are not kept in sc, so this pass cannot be
// backpropagated.
func (m *MLP) PredictSparseWith(sc *Scratch, idx []int32, vals []float64) float64 {
	sc.fit(m.sizes)
	return m.pass(sc, idx, vals)[0]
}

// SuffixSums is the shared half of the split pass. An input whose non-zero
// list is a prefix followed by a suffix — every prefix index below every
// suffix index — can be run as PredictSplit(prefix) over the suffix's sums:
// for every layer-0 unit o, the fold from zero
//
//	sums[o] = 0 + Σ w[o·in+idx[k]]·vals[k]   (k ascending over the suffix)
//
// of exactly the rounded products PredictSparseWith adds for the suffix.
// The result is written into sums, grown to the layer-0 width when it is
// shorter, and returned. When many inputs share one suffix — the pooled
// orders of one instant share the tick-global block of their states — it is
// summed once for all of them.
func (m *MLP) SuffixSums(sums []float64, idx []int32, vals []float64) []float64 {
	sums = fitSums(sums, len(m.biases[0]))
	// The sums start at zero and serve as their own biases: layer reads a
	// unit's bias before it writes the unit's output.
	clear(sums)
	layer(m.weights[0], sums, m.sizes[0], idx, vals, sums, false)
	return sums
}

// fitSums returns sums resliced to n entries, reallocated when too short.
func fitSums(sums []float64, n int) []float64 {
	if cap(sums) < n {
		return make([]float64, n)
	}
	return sums[:n]
}

// PredictSplit is the split pass: layer 0 as (bias + the prefix's terms,
// ascending) + the suffix's sums from SuffixSums, then every later layer as
// PredictSparseWith runs it. idx and vals list the prefix's non-zero
// entries under PredictSparseWith's rules. The two passes add the same
// rounded products to the same biases in a different order, so they can
// differ — by at most UnitBoxBounds' radius on every input in [0, 1]^n —
// and the caller that needs PredictSparseWith's value bit for bit must use
// the result only as an estimate with that radius. Nothing in sc survives
// the pass for backprop.
func (m *MLP) PredictSplit(sc *Scratch, sums []float64, idx []int32, vals []float64) float64 {
	sc.fit(m.sizes)
	acts := sc.acts[0]
	layer(m.weights[0], m.biases[0], m.sizes[0], idx, vals, acts, false)
	relu := len(m.weights) > 1
	for o, s := range sums[:len(acts)] {
		s += acts[o]
		if relu && s < 0 {
			s = 0
		}
		acts[o] = s
	}
	return m.upper(sc)[0]
}

// finiteCeiling is the largest bound UnitBoxBounds accepts on a layer's
// outputs. It sits eight orders of magnitude below math.MaxFloat64, so
// that a value and its radius can be added and subtracted — V̂ ± r, then
// p − (V̂ ± r) — without overflowing to a pair of opposite infinities.
const finiteCeiling = 1e300

// boundSlack inflates each layer's bounds to cover the rounding of their
// own computation. A bound is a sum of at most in+3 non-negative terms,
// each the product of at most three factors, so the float64 fold that
// computes it is within a factor 1 ± γ(in+6) of the real-number formula;
// with in below 2^31 that is less than 2^-21, and the activations it bounds
// exceed their formula by at most another such factor. 1 + 2^-16 covers
// both, and the rounding of the multiplication by it. Where the bounds are
// subnormal a relative factor covers nothing, so an absolute (2·in+8)·2^-1074
// is added too: more than the in+6 half-spacings the bound's own roundings
// can lose there, and than the in·2^-1075 underflowing products add.
const boundSlack = 1 + 0x1p-16

// gamma is γ(k) = k·u / (1 − k·u), u = 2^-53: a fold that passes a term
// through at most k roundings moves it by at most γ(k) of its magnitude.
func gamma(k int) float64 {
	ku := float64(float64(k) * 0x1p-53)
	return ku / (1 - ku)
}

// UnitBoxBounds reports what one pass over the weights proves about the
// network on the unit box [0, 1]^n: whether every pass computes a finite
// output — no NaN, no infinity — for every input there (finite), and a
// radius r with |PredictSplit − PredictSparseWith| ≤ r for every such
// input and every prefix/suffix cut. False is the safe answer for a network
// too large to bound; r means nothing then.
//
// Both passes fold, for every unit, rounded products (one rounding each,
// no fusion) and a bias. Layer l's inputs are bounded by A in the sparse
// pass (A = 1 at the input) and differ between the passes by at most D
// (D = 0 at the input). Writing ‖w‖₁ for the unit's weight row norm and n
// for the layer's input width:
//
//   - Activations. A fold of n products and a bias lands within
//     γ(n+1)·(|b| + Σ|w|·|x|) of the real sum, so every partial sum of the
//     unit is at most (1 + γ(n+1))·(|b| + ‖w‖₁·A) — the next layer's A.
//   - Layer 0. Both passes sum the same rounded products p_k, |p_k| ≤ |w_k|
//     on the box, with the bias, each in a tree of at most n+1 additions
//     (the split pass's suffix fold starts from a zero), so each lies within
//     γ(n+1)·(|b| + ‖w‖₁) of the real sum, and they lie within
//     2γ(n+1)·(|b| + ‖w‖₁) of each other.
//   - Every later layer. The real sums differ by at most ‖w‖₁·D, and each
//     pass's fold lies within γ(n+2)·(|b| + ‖w‖₁·A) respectively
//     γ(n+2)·(|b| + ‖w‖₁·(A + D)) of its real sum, plus at most 2^-1075
//     for each product that underflows, so the passes differ by at most
//     ‖w‖₁·D + γ(n+2)·(2|b| + ‖w‖₁·(2A + D)) + n·2^-1074.
//   - ReLU is 1-Lipschitz, so it carries D through unchanged.
//
// The maxima over a layer's units give the next A and D, each inflated by
// boundSlack and the absolute term; r is the output layer's D. The network
// is finite when every layer keeps A + D below finiteCeiling: then no
// partial sum of either pass can reach an infinity, and finite weights
// (New, TrainBatch and Load guarantee them) and finite inputs leave no way
// to a NaN.
func (m *MLP) UnitBoxBounds() (r float64, finite bool) {
	a, d := 1.0, 0.0
	for l, w := range m.weights {
		in := m.sizes[l]
		g := gamma(in + 2)
		nextA, nextD := 0.0, 0.0
		for o, b := range m.biases[l] {
			b = math.Abs(b)
			norm := 0.0
			for _, wi := range w[o*in:][:in] {
				norm += math.Abs(wi)
			}
			nextA = math.Max(nextA, b+float64(norm*a))
			if l == 0 {
				nextD = math.Max(nextD, float64(2*gamma(in+1)*(b+norm)))
			} else {
				nextD = math.Max(nextD, float64(norm*d)+float64(g*(float64(2*b)+float64(norm*(float64(2*a)+d)))))
			}
		}
		tiny := float64(float64(2*in+8) * 0x1p-1074)
		a = float64(nextA*boundSlack) + tiny
		d = float64(nextD*boundSlack) + tiny
		if !(a+d <= finiteCeiling) {
			return math.Inf(1), false
		}
	}
	return d, true
}

// TrainBatch performs one Adam step on mean-squared error between the first
// output and the targets, and returns the batch MSE before the update.
// Inputs beyond the first output unit (if any) are ignored in the loss.
func (m *MLP) TrainBatch(xs [][]float64, targets []float64, lr float64) float64 {
	if len(xs) == 0 || len(xs) != len(targets) {
		panic("nn: batch size mismatch")
	}
	m.ensureAdam()
	layers := len(m.weights)
	gradW := make([][]float64, layers)
	gradB := make([][]float64, layers)
	// delta[l] is dL/d(output of layer l) for the sample in hand.
	delta := make([][]float64, layers)
	for l := range m.weights {
		gradW[l] = make([]float64, len(m.weights[l]))
		gradB[l] = make([]float64, len(m.biases[l]))
		delta[l] = make([]float64, len(m.biases[l]))
	}
	var sc Scratch
	var loss float64
	last := layers - 1
	for n, x := range xs {
		out := m.forward(&sc, x)
		diff := out[0] - targets[n]
		loss += float64(diff * diff)
		// Backprop: delta on output layer (linear): dL/dout = 2*diff / N.
		clear(delta[last])
		delta[last][0] = 2 * diff / float64(len(xs))
		for l := last; l >= 0; l-- {
			in := m.sizes[l]
			w := m.weights[l]
			// The layer's non-zero inputs, as the forward pass left them.
			// A zero input adds d·0 = ±0 to its weight gradient (d is
			// finite unless training has already diverged) — nothing,
			// since an accumulator that starts at +0 never becomes -0 —
			// and for l > 0 it is a ReLU output at or below zero, whose
			// delta the derivative zeroes anyway. So both accumulations
			// visit the non-zero inputs only, each entry still summed over
			// the units in ascending order.
			idx, vals := sc.idx[l], sc.vals[l]
			vals = vals[:len(idx)]
			var prevDelta []float64
			if l > 0 {
				prevDelta = delta[l-1]
				clear(prevDelta)
			}
			for o, d := range delta[l] {
				if d == 0 {
					continue
				}
				gradB[l][o] += d
				grow := gradW[l][o*in:][:in]
				for k, i := range idx {
					grow[i] += float64(d * vals[k])
				}
				if l > 0 {
					row := w[o*in:][:in]
					for _, i := range idx {
						prevDelta[i] += float64(d * row[i])
					}
				}
			}
		}
	}
	m.adamStep(gradW, gradB, lr)
	return loss / float64(len(xs))
}

const (
	adamBeta1 = 0.9
	adamBeta2 = 0.999
	adamEps   = 1e-8
)

func (m *MLP) ensureAdam() {
	if m.mW != nil {
		return
	}
	alloc := func(shape [][]float64) [][]float64 {
		out := make([][]float64, len(shape))
		for i := range shape {
			out[i] = make([]float64, len(shape[i]))
		}
		return out
	}
	m.mW, m.vW = alloc(m.weights), alloc(m.weights)
	m.mB, m.vB = alloc(m.biases), alloc(m.biases)
}

func (m *MLP) adamStep(gradW, gradB [][]float64, lr float64) {
	m.step++
	c1 := 1 - math.Pow(adamBeta1, float64(m.step))
	c2 := 1 - math.Pow(adamBeta2, float64(m.step))
	update := func(w, g, mo, ve []float64) {
		for i := range w {
			mo[i] = float64(adamBeta1*mo[i]) + float64((1-adamBeta1)*g[i])
			ve[i] = float64(adamBeta2*ve[i]) + float64((1-adamBeta2)*g[i]*g[i])
			mhat := mo[i] / c1
			vhat := ve[i] / c2
			w[i] -= lr * mhat / (math.Sqrt(vhat) + adamEps)
		}
	}
	for l := range m.weights {
		update(m.weights[l], gradW[l], m.mW[l], m.vW[l])
		update(m.biases[l], gradB[l], m.mB[l], m.vB[l])
	}
}

// Clone returns a deep copy (weights only; fresh optimizer state). Used for
// target networks.
func (m *MLP) Clone() *MLP {
	c := &MLP{sizes: append([]int(nil), m.sizes...)}
	for l := range m.weights {
		c.weights = append(c.weights, append([]float64(nil), m.weights[l]...))
		c.biases = append(c.biases, append([]float64(nil), m.biases[l]...))
	}
	return c
}

// CopyWeightsFrom overwrites this network's weights with src's (the
// "delayed copy" step that refreshes a target network).
func (m *MLP) CopyWeightsFrom(src *MLP) {
	if len(m.sizes) != len(src.sizes) {
		panic("nn: architecture mismatch")
	}
	for l := range m.weights {
		copy(m.weights[l], src.weights[l])
		copy(m.biases[l], src.biases[l])
	}
}

// snapshot is the gob-serializable form of MLP.
type snapshot struct {
	Sizes   []int
	Weights [][]float64
	Biases  [][]float64
}

// Save writes the network weights to w (gob encoding).
func (m *MLP) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(snapshot{m.sizes, m.weights, m.biases})
}

// Load reads a network previously written with Save. The bytes come from
// outside the program (a model bundle on disk), so every shape the passes
// index by is checked here, and non-finite parameters are refused: 0·±Inf
// is NaN in a fold over the whole input and nothing in one that skips
// zeros, so finiteness is what makes layer's zero-skipping exact for every
// model that loads.
func Load(r io.Reader) (*MLP, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if err := s.validate(); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	return &MLP{sizes: s.Sizes, weights: s.Weights, biases: s.Biases}, nil
}

func (s *snapshot) validate() error {
	if len(s.Sizes) < 2 || len(s.Weights) != len(s.Sizes)-1 || len(s.Biases) != len(s.Sizes)-1 {
		return fmt.Errorf("corrupt snapshot: %d sizes, %d weight and %d bias layers",
			len(s.Sizes), len(s.Weights), len(s.Biases))
	}
	for l, n := range s.Sizes {
		// Input indices are held as int32, and in·out must not overflow.
		if n < 1 || n > math.MaxInt32 {
			return fmt.Errorf("corrupt snapshot: layer %d has size %d", l, n)
		}
	}
	for l := range s.Weights {
		in, out := s.Sizes[l], s.Sizes[l+1]
		if int64(len(s.Weights[l])) != int64(in)*int64(out) || len(s.Biases[l]) != out {
			return fmt.Errorf("corrupt snapshot: layer %d (%dx%d) has %d weights and %d biases",
				l, in, out, len(s.Weights[l]), len(s.Biases[l]))
		}
		for _, params := range [][]float64{s.Weights[l], s.Biases[l]} {
			for _, v := range params {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("corrupt snapshot: layer %d holds a non-finite parameter", l)
				}
			}
		}
	}
	return nil
}
