package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"math"
	"runtime"
	"strings"
	"testing"

	"watter/internal/dataset"
	"watter/internal/mdp"
	"watter/internal/nn"
	"watter/internal/order"
	"watter/internal/roadnet"
)

func TestTrainedSaveLoadRoundTrip(t *testing.T) {
	r := NewRunner()
	p := smallParams()
	trained := r.Train(p)

	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	city := p.City.Build()
	loaded, err := LoadTrained(bytes.NewReader(buf.Bytes()), city.Net)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions on an arbitrary state.
	state := make([]float64, loaded.Feat.Dim())
	for i := range state {
		state[i] = float64(i%5) / 5
	}
	if got, want := loaded.Net.Predict(state), trained.Net.Predict(state); got != want {
		t.Fatalf("prediction drift: %v vs %v", got, want)
	}
	if len(loaded.GMM.Components) != len(trained.GMM.Components) {
		t.Fatal("GMM lost components")
	}
	if loaded.Feat.SlotSeconds != trained.Feat.SlotSeconds {
		t.Fatal("featurizer params lost")
	}
}

// TestTrainedBundlePinned pins the saved bundle of a tiny CDC training at
// seed 1. The offline pipeline — behavior run, GMM fit, experience
// collection under θ*, value-network training — is deterministic per seed,
// so a change to any of its steps that moves one bit of the model moves
// this hash; a refactor that claims bit-identity must leave it alone.
func TestTrainedBundlePinned(t *testing.T) {
	// math.Exp, Log and Erf have assembly kernels on some ports, and a fused
	// multiply-add (arm64, ppc64le, s390x) rounds differently: the pinned
	// bytes are amd64's.
	if runtime.GOARCH != "amd64" {
		t.Skip("the pinned hash is amd64's; other ports may round the training arithmetic differently")
	}
	const want = "6f5323f8ba9ba60496b8463111d16dd5b4fb9e845a06b76701f27c4e23297306"
	p := DefaultParams(dataset.CDC())
	p.Seed = 1
	p.Train.HistoricalOrders = 300
	p.Train.TrainSteps = 50
	p.Train.Hidden = []int{8}
	trained, err := NewRunner().trained(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("trained bundle sha256 = %s, want %s", got, want)
	}
}

// TestLoadTrainedRejectsWrongGeometry: a bundle is outside input, and every
// field LoadTrained rebinds is checked before it is used. Each case is the
// trained bundle with one field broken; each used to load and then panic or
// compute a NaN θ.
func TestLoadTrainedRejectsWrongGeometry(t *testing.T) {
	r := NewRunner()
	p := smallParams()
	trained := r.Train(p)
	city := p.City.Build()
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var good trainedSnapshot
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&good); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrained(bytes.NewReader(encodeBundle(t, good)), city.Net); err != nil {
		t.Fatalf("the unbroken bundle: %v", err)
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name   string
		mutate func(s *trainedSnapshot)
		want   string // in the error
	}{
		{"grid one size off", func(s *trainedSnapshot) { s.GridN++ }, "grid"},
		{"grid zero", func(s *trainedSnapshot) { s.GridN = 0 }, "grid"},
		// 5·(2^32)²+2 wraps to 2: a 2-input network used to load, and the
		// first Threshold indexed out of range.
		{"grid overflowing the width", func(s *trainedSnapshot) {
			s.GridN = 1 << 32
			s.Net = netBytes(t, nn.New([]int{2, 1}, 1))
		}, "grid"},
		{"SlotSeconds zero", func(s *trainedSnapshot) { s.SlotSeconds = 0 }, "SlotSeconds"}, // θ was NaN at now == release
		{"SlotSeconds negative", func(s *trainedSnapshot) { s.SlotSeconds = -10 }, "SlotSeconds"},
		{"SlotSeconds NaN", func(s *trainedSnapshot) { s.SlotSeconds = nan }, "SlotSeconds"},
		{"SlotSeconds infinite", func(s *trainedSnapshot) { s.SlotSeconds = inf }, "SlotSeconds"},
		{"MaxWaitSlots zero", func(s *trainedSnapshot) { s.MaxWaitSlots = 0 }, "MaxWaitSlots"},
		{"MaxWaitSlots NaN", func(s *trainedSnapshot) { s.MaxWaitSlots = nan }, "MaxWaitSlots"},
		{"MaxWaitSlots infinite", func(s *trainedSnapshot) { s.MaxWaitSlots = inf }, "MaxWaitSlots"},
		{"HorizonSeconds negative", func(s *trainedSnapshot) { s.HorizonSeconds = -1 }, "HorizonSeconds"},
		{"HorizonSeconds NaN", func(s *trainedSnapshot) { s.HorizonSeconds = nan }, "HorizonSeconds"},
		{"HorizonSeconds infinite", func(s *trainedSnapshot) { s.HorizonSeconds = inf }, "HorizonSeconds"},
		{"model not finite on the box", func(s *trainedSnapshot) { s.Net = hugeNetBytes(t, trained.Feat.Dim()) }, "finite"},
		{"no network", func(s *trainedSnapshot) { s.Net = nil }, "corrupt"},
	} {
		s := good
		c.mutate(&s)
		_, err := LoadTrained(bytes.NewReader(encodeBundle(t, s)), city.Net)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: LoadTrained error %v, want one naming %q", c.name, err, c.want)
		}
	}
	if _, err := LoadTrained(strings.NewReader("not a gob"), roadnet.NewGridCity(3, 3, 10, 1)); err == nil {
		t.Fatal("garbage must fail")
	}
}

// hugeNetBytes is a linear network in nn's wire form whose every weight is
// 1e300: finite, so nn.Load accepts it, but two non-zero inputs overflow.
func hugeNetBytes(t testing.TB, dim int) []byte {
	t.Helper()
	w := make([]float64, dim)
	for i := range w {
		w[i] = 1e300
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Sizes   []int
		Weights [][]float64
		Biases  [][]float64
	}{[]int{dim, 1}, [][]float64{w}, [][]float64{{0}}})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeBundle(t testing.TB, s trainedSnapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func netBytes(t testing.TB, m *nn.MLP) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadTrained: LoadTrained never panics on arbitrary bytes, and a bundle
// it accepts gives a finite θ for an ordinary order — the guarantee the
// threshold strategy's bound-first decision is built on. The seed corpus in
// testdata/fuzz/FuzzLoadTrained holds valid bundles over 1×1 and 2×2 grids
// and one bundle per kind of refusal TestLoadTrainedRejectsWrongGeometry
// checks.
func FuzzLoadTrained(f *testing.F) {
	city := roadnet.NewGridCity(4, 4, 100, 10)
	o := &order.Order{
		ID: 1, Pickup: city.Node(0, 0), Dropoff: city.Node(3, 2), Riders: 1,
		Release: 30, Deadline: 900, WaitLimit: 120, DirectCost: 300,
	}
	f.Fuzz(func(t *testing.T, bundle []byte) {
		trained, err := LoadTrained(bytes.NewReader(bundle), city)
		if err != nil {
			return
		}
		src := &mdp.ValueThresholdSource{Net: trained.Net, Feat: trained.Feat}
		for _, now := range []float64{o.Release, o.Release + 45, 1e9} {
			if th := src.Threshold(o, now); math.IsNaN(th) || math.IsInf(th, 0) {
				t.Fatalf("a loaded bundle gives θ = %v at now = %v", th, now)
			}
		}
	})
}
