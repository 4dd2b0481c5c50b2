// Package dataset generates the synthetic city workloads that stand in for
// the paper's three real datasets (NYC yellow taxis, Didi Chengdu, Didi
// Xi'an). The algorithms consume only (pickup, dropoff, release, riders)
// tuples plus a travel-time oracle, so the substitution preserves exactly
// the properties the evaluation depends on: demand concentration (NYC is
// Manhattan-concentrated, CDC/XIA are dispersed — paper Section VII-B),
// rush-hour arrival peaks, and trip-length spread. Every generator is
// deterministic under its seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"watter/internal/geo"
	"watter/internal/order"
	"watter/internal/roadnet"
)

// Hotspot is a Gaussian demand center on the grid (units: grid cells).
type Hotspot struct {
	X, Y   float64 // center in cell coordinates
	Sigma  float64 // spread in cells
	Weight float64 // relative share of hotspot demand
}

// Profile describes a synthetic city.
type Profile struct {
	Name string
	// Grid geometry.
	W, H       int
	CellMeters float64
	SpeedMPS   float64
	// RoadJitter switches the city from the closed-form GridCity onto an
	// explicit perturbed-lattice road graph (per-edge travel times scaled
	// by a factor in [1-RoadJitter, 1+RoadJitter], deterministic under
	// RoadSeed). An explicit graph runs the full routing stack — ALT and,
	// at chAutoMinNodes and above, the contraction hierarchy — which is the
	// point of the MET profile: a paper-scale city whose cost oracle is a
	// real routing engine instead of an L1 formula.
	RoadJitter float64
	RoadSeed   int64
	// HotspotShare is the fraction of pickups drawn from the hotspot
	// mixture (the rest is uniform) — the concentration knob that
	// separates NYC from CDC/XIA.
	HotspotShare float64
	// DropoffHotspotShare is the same knob for dropoffs. Evening-peak taxi
	// demand is directionally imbalanced (rides flow out of the centers),
	// so this is lower than HotspotShare; the imbalance drains workers
	// away from demand centers and is a big part of why pooling beats
	// greedy insertion on real data.
	DropoffHotspotShare float64
	Hotspots            []Hotspot
	// RushHours lists [start, end, intensity] triples over the day used to
	// shape arrival times; intensity 1 is the off-peak base.
	RushHours [][3]float64
}

// NYC returns the Manhattan-like profile: elongated grid, strongly
// concentrated demand (the paper: "most orders are concentrated in the
// Manhattan area").
func NYC() Profile {
	return Profile{
		Name: "NYC", W: 60, H: 24, CellMeters: 150, SpeedMPS: 7,
		HotspotShare: 0.75, DropoffHotspotShare: 0.3,
		Hotspots: []Hotspot{
			{X: 12, Y: 12, Sigma: 3, Weight: 3}, // midtown-ish
			{X: 28, Y: 10, Sigma: 4, Weight: 2},
			{X: 45, Y: 14, Sigma: 3, Weight: 2},
			{X: 20, Y: 6, Sigma: 2.5, Weight: 1},
		},
		RushHours: [][3]float64{{7 * 3600, 10 * 3600, 3}, {17 * 3600, 20 * 3600, 3.5}},
	}
}

// CDC returns the Chengdu-like profile: square grid, moderately dispersed.
func CDC() Profile {
	return Profile{
		Name: "CDC", W: 42, H: 42, CellMeters: 160, SpeedMPS: 8,
		HotspotShare: 0.55, DropoffHotspotShare: 0.25,
		Hotspots: []Hotspot{
			{X: 21, Y: 21, Sigma: 6, Weight: 3}, // ring-road core
			{X: 10, Y: 30, Sigma: 5, Weight: 1.5},
			{X: 32, Y: 12, Sigma: 5, Weight: 1.5},
			{X: 8, Y: 8, Sigma: 4, Weight: 1},
			{X: 34, Y: 34, Sigma: 4, Weight: 1},
		},
		RushHours: [][3]float64{{7.5 * 3600, 9.5 * 3600, 2.5}, {17.5 * 3600, 19.5 * 3600, 3}},
	}
}

// XIA returns the Xi'an-like profile: dispersed demand, smaller volume.
func XIA() Profile {
	return Profile{
		Name: "XIA", W: 36, H: 36, CellMeters: 170, SpeedMPS: 8,
		HotspotShare: 0.4, DropoffHotspotShare: 0.2,
		Hotspots: []Hotspot{
			{X: 18, Y: 18, Sigma: 7, Weight: 2}, // walled city center
			{X: 8, Y: 26, Sigma: 6, Weight: 1},
			{X: 27, Y: 9, Sigma: 6, Weight: 1},
		},
		RushHours: [][3]float64{{7.5 * 3600, 9.5 * 3600, 2.2}, {18 * 3600, 20 * 3600, 2.8}},
	}
}

// MET returns the metropolis-scale profile: a 320x320 perturbed lattice
// (102,400 intersections — the size band of the paper's real road
// networks) whose cost oracle is the explicit routing engine with the
// contraction hierarchy built at construction time. Building it costs
// tens of seconds of CH preprocessing, which is the trade the profile
// exists to measure: sweeps amortize the build across millions of
// dispatch-time cost queries.
func MET() Profile {
	return Profile{
		Name: "MET", W: 320, H: 320, CellMeters: 200, SpeedMPS: 8,
		RoadJitter: 0.3, RoadSeed: 1,
		HotspotShare: 0.6, DropoffHotspotShare: 0.25,
		Hotspots: []Hotspot{
			{X: 160, Y: 160, Sigma: 30, Weight: 3}, // downtown core
			{X: 80, Y: 220, Sigma: 24, Weight: 1.5},
			{X: 240, Y: 90, Sigma: 24, Weight: 1.5},
			{X: 60, Y: 60, Sigma: 18, Weight: 1},
		},
		RushHours: [][3]float64{{7.5 * 3600, 9.5 * 3600, 2.5}, {17 * 3600, 20 * 3600, 3}},
	}
}

// ByName resolves "nyc", "cdc", "xia" or "met" (case-insensitive prefix
// match).
func ByName(name string) (Profile, error) {
	switch {
	case len(name) == 0:
		return Profile{}, fmt.Errorf("dataset: empty name")
	case name[0] == 'n' || name[0] == 'N':
		return NYC(), nil
	case name[0] == 'c' || name[0] == 'C':
		return CDC(), nil
	case name[0] == 'x' || name[0] == 'X':
		return XIA(), nil
	case name[0] == 'm' || name[0] == 'M':
		return MET(), nil
	}
	return Profile{}, fmt.Errorf("dataset: unknown city %q", name)
}

// City is a generated city: the network plus its demand profile.
type City struct {
	Profile Profile
	Net     roadnet.LatticeNetwork
}

// Build materializes the profile's road network: the closed-form GridCity
// by default, an explicit perturbed-lattice graph when RoadJitter is set.
func (p Profile) Build() *City {
	if p.RoadJitter > 0 {
		return &City{Profile: p, Net: roadnet.NewPerturbedLattice(p.W, p.H, p.CellMeters, p.SpeedMPS, p.RoadJitter, p.RoadSeed)}
	}
	return &City{Profile: p, Net: roadnet.NewGridCity(p.W, p.H, p.CellMeters, p.SpeedMPS)}
}

// WorkloadConfig parameterizes one simulated period.
type WorkloadConfig struct {
	Orders int
	Seed   int64
	// StartSeconds/HorizonSeconds select the slice of day simulated
	// (defaults: the 17:00 evening peak, 2 h window compressed so that
	// Orders arrive inside it).
	StartSeconds   float64
	HorizonSeconds float64
	// TauScale sets deadlines: tau = release + TauScale * direct (Table
	// III; default 1.6).
	TauScale float64
	// Eta sets wait limits: eta = Eta * direct (Section VII-A, default 0.8).
	Eta float64
	// MaxRiders caps per-order rider counts (1 in the paper's main runs —
	// "we treat each record as an order with one passenger").
	MaxRiders int
}

// Defaults fills zero fields with the paper's defaults.
func (c WorkloadConfig) Defaults() WorkloadConfig {
	if c.StartSeconds == 0 {
		c.StartSeconds = 17 * 3600 // evening peak by default
	}
	if c.HorizonSeconds == 0 {
		c.HorizonSeconds = 7200
	}
	if c.TauScale == 0 {
		c.TauScale = 1.6
	}
	if c.Eta == 0 {
		c.Eta = 0.8
	}
	if c.MaxRiders == 0 {
		c.MaxRiders = 1
	}
	return c
}

// Orders generates the order stream.
func (ct *City) Orders(cfg WorkloadConfig) []*order.Order {
	cfg = cfg.Defaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	releases := ct.arrivalTimes(rng, cfg)
	out := make([]*order.Order, 0, cfg.Orders)
	for i := 0; i < cfg.Orders; i++ {
		pu := ct.sampleEndpoint(rng, ct.Profile.HotspotShare)
		do := ct.sampleEndpoint(rng, ct.Profile.DropoffHotspotShare)
		for tries := 0; do == pu && tries < 8; tries++ {
			do = ct.sampleEndpoint(rng, ct.Profile.DropoffHotspotShare)
		}
		if do == pu {
			continue
		}
		direct := ct.Net.Cost(pu, do)
		riders := 1
		if cfg.MaxRiders > 1 {
			riders = 1 + rng.Intn(cfg.MaxRiders)
		}
		out = append(out, &order.Order{
			ID: i + 1, Pickup: pu, Dropoff: do, Riders: riders,
			Release:    releases[i],
			Deadline:   releases[i] + float64(cfg.TauScale*direct),
			WaitLimit:  cfg.Eta * direct,
			DirectCost: direct,
		})
	}
	return out
}

// arrivalTimes samples sorted release offsets in [0, horizon) shaped by the
// rush-hour intensity profile over the configured slice of day.
func (ct *City) arrivalTimes(rng *rand.Rand, cfg WorkloadConfig) []float64 {
	// Piecewise-constant intensity over the slice, 60 bins.
	const bins = 60
	w := make([]float64, bins)
	var total float64
	for b := 0; b < bins; b++ {
		t := cfg.StartSeconds + (float64(b)+0.5)*cfg.HorizonSeconds/bins
		w[b] = ct.intensityAt(t)
		total += w[b]
	}
	times := make([]float64, cfg.Orders)
	for i := range times {
		u := rng.Float64() * total
		b := 0
		for ; b < bins-1 && u > w[b]; b++ {
			u -= w[b]
		}
		frac := float64(rng.Float64()) // converted: Float64 is a product, kept unfused
		times[i] = (float64(b) + frac) * cfg.HorizonSeconds / bins
	}
	sortFloats(times)
	return times
}

func (ct *City) intensityAt(dayTime float64) float64 {
	v := 1.0
	for _, r := range ct.Profile.RushHours {
		if dayTime >= r[0] && dayTime < r[1] {
			if r[2] > v {
				v = r[2]
			}
		}
	}
	return v
}

// sampleEndpoint draws a node: hotspot mixture with probability
// hotShare, uniform otherwise.
func (ct *City) sampleEndpoint(rng *rand.Rand, hotShare float64) geo.NodeID {
	p := ct.Profile
	if rng.Float64() >= hotShare || len(p.Hotspots) == 0 {
		return ct.Net.Node(rng.Intn(p.W), rng.Intn(p.H))
	}
	// Pick a hotspot by weight.
	var wsum float64
	for _, h := range p.Hotspots {
		wsum += h.Weight
	}
	u := rng.Float64() * wsum
	h := p.Hotspots[len(p.Hotspots)-1]
	for _, cand := range p.Hotspots {
		if u < cand.Weight {
			h = cand
			break
		}
		u -= cand.Weight
	}
	x := clampInt(int(math.Round(h.X+float64(rng.NormFloat64()*h.Sigma))), 0, p.W-1)
	y := clampInt(int(math.Round(h.Y+float64(rng.NormFloat64()*h.Sigma))), 0, p.H-1)
	return ct.Net.Node(x, y)
}

// Workers places m workers by sampling the order-pickup distribution
// (paper: "We uniformly sample initial locations for workers using the
// distribution of orders' pick-up locations") with capacity uniform in
// [2, maxCapacity].
func (ct *City) Workers(m int, maxCapacity int, seed int64) []*order.Worker {
	if maxCapacity < 2 {
		maxCapacity = 2
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*order.Worker, m)
	for i := range out {
		out[i] = &order.Worker{
			ID:       i + 1,
			Loc:      ct.sampleEndpoint(rng, ct.Profile.HotspotShare),
			Capacity: 2 + rng.Intn(maxCapacity-1),
		}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func sortFloats(xs []float64) { sort.Float64s(xs) }
