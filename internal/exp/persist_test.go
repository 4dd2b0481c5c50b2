package exp

import (
	"bytes"
	"strings"
	"testing"

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

func TestLoadTrainedRejectsWrongGeometry(t *testing.T) {
	r := NewRunner()
	p := smallParams()
	trained := r.Train(p)
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// Same bytes, grotesquely different city: the grid index has the same
	// cell count (N x N), so geometry mismatches only bite when N config
	// differs; corrupting the stream must also fail loudly.
	if _, err := LoadTrained(strings.NewReader("not a gob"), roadnet.NewGridCity(3, 3, 10, 1)); err == nil {
		t.Fatal("garbage must fail")
	}
}
