package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"watter/internal/geo"
	"watter/internal/order"
)

// TripCSVOptions describes how to interpret a real trip-record CSV (the
// NYC-yellow-taxi / Didi GAIA shape: one row per ride with coordinates and
// a release time). This is the bridge from the paper's actual datasets to
// this repository: given the real files, LoadTripsCSV replays them through
// the same pipeline the synthetic generators feed.
type TripCSVOptions struct {
	// Column indexes (0-based) for release seconds, pickup lat/lon,
	// dropoff lat/lon. Rows failing to parse are skipped, not fatal
	// (real trip dumps are dirty).
	ReleaseCol int
	PickupLat  int
	PickupLon  int
	DropoffLat int
	DropoffLon int
	// RidersCol is optional (-1 = every order carries one rider).
	RidersCol int
	// HasHeader skips the first row.
	HasHeader bool
	// TauScale and Eta synthesize the deadline and wait limit exactly as
	// the paper does for the real data (Section VII-A). Zero values take
	// the defaults 1.6 and 0.8.
	TauScale float64
	Eta      float64
	// MaxOrders caps how many rows are ingested (0 = all).
	MaxOrders int
}

// Georeference maps WGS84 coordinates onto the city's planar frame with an
// equirectangular projection anchored at the reference point. Sufficient
// at city scale (< 0.1 % distortion over tens of km).
type Georeference struct {
	Lat0, Lon0 float64 // maps to plane origin
	// MetersPerDegLat is ~111.32 km; MetersPerDegLon scales by cos(lat).
}

// ToPlane projects lat/lon to meters in the city frame.
func (g Georeference) ToPlane(lat, lon float64) geo.Point {
	const mPerDegLat = 111320.0
	return geo.Point{
		X: (lon - g.Lon0) * mPerDegLat * math.Cos(g.Lat0*math.Pi/180),
		Y: (lat - g.Lat0) * mPerDegLat,
	}
}

// LoadTripsCSV reads trip records and converts each row into an Order
// snapped to the nearest network node. Returns the orders plus the number
// of rows skipped as unparseable or out of bounds.
func (ct *City) LoadTripsCSV(r io.Reader, georef Georeference, opt TripCSVOptions) ([]*order.Order, int, error) {
	if opt.TauScale == 0 {
		opt.TauScale = 1.6
	}
	if opt.Eta == 0 {
		opt.Eta = 0.8
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	var (
		out     []*order.Order
		skipped int
		rowNum  int
	)
	need := maxInt(opt.ReleaseCol, opt.PickupLat, opt.PickupLon, opt.DropoffLat, opt.DropoffLon, opt.RidersCol) + 1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, skipped, fmt.Errorf("dataset: csv: %w", err)
		}
		rowNum++
		if opt.HasHeader && rowNum == 1 {
			continue
		}
		if opt.MaxOrders > 0 && len(out) >= opt.MaxOrders {
			break
		}
		if len(row) < need {
			skipped++
			continue
		}
		release, err1 := strconv.ParseFloat(row[opt.ReleaseCol], 64)
		plat, err2 := strconv.ParseFloat(row[opt.PickupLat], 64)
		plon, err3 := strconv.ParseFloat(row[opt.PickupLon], 64)
		dlat, err4 := strconv.ParseFloat(row[opt.DropoffLat], 64)
		dlon, err5 := strconv.ParseFloat(row[opt.DropoffLon], 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil || release < 0 {
			skipped++
			continue
		}
		riders := 1
		if opt.RidersCol >= 0 {
			if v, err := strconv.Atoi(row[opt.RidersCol]); err == nil && v >= 1 {
				riders = v
			}
		}
		pu, okP := ct.snap(georef.ToPlane(plat, plon))
		do, okD := ct.snap(georef.ToPlane(dlat, dlon))
		if !okP || !okD || pu == do {
			skipped++
			continue
		}
		direct := ct.Net.Cost(pu, do)
		out = append(out, &order.Order{
			ID: len(out) + 1, Pickup: pu, Dropoff: do, Riders: riders,
			Release:    release,
			Deadline:   release + float64(opt.TauScale*direct),
			WaitLimit:  opt.Eta * direct,
			DirectCost: direct,
		})
	}
	sortOrdersByRelease(out)
	for i, o := range out {
		o.ID = i + 1
	}
	return out, skipped, nil
}

// snap returns the nearest grid node; false when the point falls more than
// one block outside the city bounds.
func (ct *City) snap(p geo.Point) (geo.NodeID, bool) {
	b := ct.Net.Bounds()
	slackX := ct.Profile.CellMeters
	if p.X < b.Min.X-slackX || p.X > b.Max.X+slackX || p.Y < b.Min.Y-slackX || p.Y > b.Max.Y+slackX {
		return 0, false
	}
	x := clampInt(int(math.Round(p.X/ct.Profile.CellMeters)), 0, ct.Profile.W-1)
	y := clampInt(int(math.Round(p.Y/ct.Profile.CellMeters)), 0, ct.Profile.H-1)
	return ct.Net.Node(x, y), true
}

func sortOrdersByRelease(orders []*order.Order) {
	sort.SliceStable(orders, func(i, j int) bool { return orders[i].Release < orders[j].Release })
}

func maxInt(vs ...int) int {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}
