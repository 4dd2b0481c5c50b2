package exp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"watter/internal/gmm"
	"watter/internal/gridindex"
	"watter/internal/mdp"
	"watter/internal/nn"
	"watter/internal/roadnet"
)

// trainedSnapshot is the gob wire form of a Trained bundle. The value
// network travels as its own gob blob (nn owns its encoding); featurizer
// geometry is stored as plain parameters and rebound to a network at load
// time.
type trainedSnapshot struct {
	GridN          int
	SlotSeconds    float64
	HorizonSeconds float64
	MaxWaitSlots   float64
	GMM            []gmm.Component
	Net            []byte
}

// Save serializes the trained WATTER-expect artifacts (featurizer
// geometry, GMM, value-network weights) so a model trained by wattertrain
// can be reloaded without re-simulating.
func (t *Trained) Save(w io.Writer) error {
	var netBuf bytes.Buffer
	if err := t.Net.Save(&netBuf); err != nil {
		return fmt.Errorf("exp: save network: %w", err)
	}
	snap := trainedSnapshot{
		GridN:          t.Feat.Index.N(),
		SlotSeconds:    t.Feat.SlotSeconds,
		HorizonSeconds: t.Feat.HorizonSeconds,
		MaxWaitSlots:   t.Feat.MaxWaitSlots,
		GMM:            t.GMM.Components,
		Net:            netBuf.Bytes(),
	}
	return gob.NewEncoder(w).Encode(snap)
}

// LoadTrained reads a bundle written by Trained.Save and rebinds it to the
// given network (the grid index is a function of the network bounds, so
// the model must be loaded against the same city geometry it was trained
// on). The returned Trained has no Trainer: it is an inference-only model.
//
// The bundle comes from outside the program, so nothing in it is trusted:
// the grid must give exactly the model's input width, the featurizer's
// scales must keep every state entry a number, and the model must be finite
// on the state box (nn.MLP.FiniteOnUnitBox). Together they make θ a number
// for every order with a finite release at or after 0 — what the threshold
// strategy's bound-first decision relies on.
func LoadTrained(r io.Reader, net roadnet.Network) (*Trained, error) {
	var snap trainedSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("exp: load: %w", err)
	}
	if len(snap.Net) == 0 {
		return nil, fmt.Errorf("exp: load: corrupt bundle")
	}
	for _, s := range []struct {
		name string
		v    float64
		ok   bool
	}{
		{"SlotSeconds", snap.SlotSeconds, snap.SlotSeconds > 0},
		{"MaxWaitSlots", snap.MaxWaitSlots, snap.MaxWaitSlots > 0},
		{"HorizonSeconds", snap.HorizonSeconds, snap.HorizonSeconds >= 0},
	} {
		if !s.ok || math.IsInf(s.v, 0) {
			return nil, fmt.Errorf("exp: load: corrupt bundle: %s = %v", s.name, s.v)
		}
	}
	mlp, err := nn.Load(bytes.NewReader(snap.Net))
	if err != nil {
		return nil, err
	}
	// The state is 5·N²+2 wide. A hostile N overflows that product, so the
	// width is divided down instead; nn.Load caps it at MaxInt32, which
	// keeps N·N in range once N is at most the width.
	width := mlp.Sizes()[0]
	if n := int64(snap.GridN); n <= 0 || n > int64(width) || (width-2)%5 != 0 || n*n != int64((width-2)/5) {
		return nil, fmt.Errorf("exp: load: a %d-cell grid does not give the model's %d-dim states", snap.GridN, width)
	}
	if !mlp.FiniteOnUnitBox() {
		return nil, fmt.Errorf("exp: load: the model is not provably finite on the state box")
	}
	feat := &mdp.Featurizer{
		Index:          gridindex.New(net, snap.GridN),
		SlotSeconds:    snap.SlotSeconds,
		HorizonSeconds: snap.HorizonSeconds,
		MaxWaitSlots:   snap.MaxWaitSlots,
	}
	return &Trained{Feat: feat, Net: mlp, GMM: &gmm.Model{Components: snap.GMM}}, nil
}
