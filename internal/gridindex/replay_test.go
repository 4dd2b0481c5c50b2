package gridindex_test

import (
	"testing"

	"watter/internal/baseline"
	"watter/internal/core"
	"watter/internal/dataset"
	"watter/internal/gridindex"
	"watter/internal/platform"
	"watter/internal/pool"
	"watter/internal/sim"
	"watter/internal/strategy"
)

// TestWatermarksAfterPlatformReplay: a whole replay through the platform —
// every booking, relocation and drain the dispatchers perform, on a
// closed-form and on a graph city, through WATTER's group dispatch and
// GDP's schedule updates — leaves every cell's watermark equal to the
// earliest FreeAt filed there.
func TestWatermarksAfterPlatformReplay(t *testing.T) {
	jittered := dataset.CDC()
	jittered.RoadJitter, jittered.RoadSeed = 0.3, 1
	for _, prof := range []dataset.Profile{dataset.CDC(), jittered} {
		city := prof.Build()
		for _, alg := range []func() sim.Algorithm{
			func() sim.Algorithm { return core.New(strategy.Timeout{}, pool.DefaultOptions()) },
			func() sim.Algorithm { return &baseline.GDP{} },
		} {
			a := alg()
			p, err := platform.New(city.Net, city.Workers(25, 4, 3), platform.WithAlgorithm(a))
			if err != nil {
				t.Fatal(err)
			}
			m, err := p.Replay(city.Orders(dataset.WorkloadConfig{Orders: 300, Seed: 5}))
			if err != nil {
				t.Fatal(err)
			}
			if m.Served == 0 {
				t.Fatalf("%s on %s: nothing served; the replay moved no worker", a.Name(), prof.Name)
			}
			if err := gridindex.CheckWatermarks(p.Env().WIndex); err != nil {
				t.Fatalf("%s on %s (jitter %v): %v", a.Name(), prof.Name, prof.RoadJitter, err)
			}
		}
	}
}
