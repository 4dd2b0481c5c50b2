package proxy

import (
	"fmt"

	"watter/internal/platform"
)

// Admin is the proxy's operator plane — the dashboard side of the
// Codis-style split. It shares the proxy's lock, so admin actions
// serialize with traffic and land between events in the journal, never
// inside a platform call.
type Admin struct {
	x *Proxy
}

// Admin returns the operator plane. The handle is stateless; callers may
// grab it once or per call.
func (x *Proxy) Admin() Admin { return Admin{x: x} }

// CityState is a city's lifecycle state as the front tier sees it.
type CityState int

const (
	// StateRunning: the city serves traffic.
	StateRunning CityState = iota
	// StatePaused: the operator froze the city; traffic is refused with
	// platform.ErrPaused until Resume. Virtual time means the freeze is
	// metrics-neutral.
	StatePaused
	// StateDown: the city crashed and its journal replay failed, so it
	// could not be restarted.
	StateDown
	// StateClosed: the proxy itself is closed; the city finished.
	StateClosed
)

func (s CityState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateDown:
		return "down"
	case StateClosed:
		return "closed"
	}
	return fmt.Sprintf("CityState(%d)", int(s))
}

// Health is one city's probe report.
type Health struct {
	City  string
	State CityState
	// Clock is the city's virtual time in seconds.
	Clock float64
	// Restarts counts successful journal-replay recoveries of this city.
	Restarts int
	// JournalEvents is the length of the city's recorded event sequence —
	// the replay cost of the next restart.
	JournalEvents int
	// Recovered reports that THIS probe found the city wedged and healed
	// it.
	Recovered bool
	// Err carries the failure, wrapping ErrCityDown, when the city is down
	// and could not be healed.
	Err error
}

// Pause freezes one city: its Submit/Tick refuse with platform.ErrPaused
// while every other city keeps serving. The freeze is metrics-neutral
// (virtual time — delayed ticks fire identically on resume). A crashed
// city heals first, as it does for traffic.
func (a Admin) Pause(cityID string) error {
	a.x.mu.Lock()
	defer a.x.mu.Unlock()
	if a.x.closed {
		return ErrClosed
	}
	ct, err := a.x.lookupLocked(cityID)
	if err != nil {
		return err
	}
	if err := a.x.healLocked(ct); err != nil {
		return err
	}
	if err := ct.plat.Pause(); err != nil {
		return fmt.Errorf("proxy: city %q: %w", cityID, err)
	}
	ct.paused = true
	return nil
}

// Resume unfreezes a paused city, healing it first if it crashed.
func (a Admin) Resume(cityID string) error {
	a.x.mu.Lock()
	defer a.x.mu.Unlock()
	if a.x.closed {
		return ErrClosed
	}
	ct, err := a.x.lookupLocked(cityID)
	if err != nil {
		return err
	}
	if err := a.x.healLocked(ct); err != nil {
		return err
	}
	if err := ct.plat.Resume(); err != nil {
		return fmt.Errorf("proxy: city %q: %w", cityID, err)
	}
	ct.paused = false
	return nil
}

// Kill crash-injects a city: the platform aborts in place, but the
// proxy's bookkeeping is deliberately NOT updated — exactly like a real
// wedge, the front tier finds out when traffic hits the city or a probe
// inspects it. Exists so HA detection and journal-replay recovery are
// testable end to end.
func (a Admin) Kill(cityID string) error {
	a.x.mu.Lock()
	defer a.x.mu.Unlock()
	if a.x.closed {
		return ErrClosed
	}
	ct, err := a.x.lookupLocked(cityID)
	if err != nil {
		return err
	}
	ct.plat.Abort()
	return nil
}

// Probe health-checks every city in routing order. A wedged city — its
// platform reports closed while the front tier believes it is running —
// is detected here without waiting for traffic, healed inline (journal
// replay) and reported Recovered.
func (a Admin) Probe() []Health {
	a.x.mu.Lock()
	defer a.x.mu.Unlock()
	out := make([]Health, 0, len(a.x.ids))
	for _, id := range a.x.ids {
		ct := a.x.cities[id]
		h := Health{
			City:          id,
			Clock:         ct.plat.Clock(),
			Restarts:      ct.restarts,
			JournalEvents: len(ct.journal),
		}
		st := ct.plat.Stats()
		switch {
		case a.x.closed:
			h.State = StateClosed
		case ct.down || st.Closed:
			if err := a.x.healLocked(ct); err != nil {
				h.State, h.Err = StateDown, err
				break
			}
			h.Recovered = true
			h.Restarts = ct.restarts
			h.Clock = ct.plat.Clock()
			if ct.paused {
				h.State = StatePaused
			} else {
				h.State = StateRunning
			}
		case ct.paused:
			h.State = StatePaused
		default:
			h.State = StateRunning
		}
		out = append(out, h)
	}
	return out
}

// CityStats is one city's unified snapshot, tagged for the fleet view.
type CityStats struct {
	City     string
	Restarts int
	Stats    platform.Stats
}

// AdminStats is the whole-fleet observability snapshot: every city's
// unified platform.Stats (routing order) plus their fold.
type AdminStats struct {
	Cities []CityStats
	// Aggregate folds every city's snapshot with Stats.Merge: counters
	// sum, Clock is the max, Closed only when all cities closed, Paused
	// when any is.
	Aggregate platform.Stats
	// JournalEvents is the merged journal's length.
	JournalEvents int
	// Restarts is the fleet-wide recovery count.
	Restarts int
}

// CityStats returns one city's unified snapshot.
func (a Admin) CityStats(cityID string) (platform.Stats, error) {
	a.x.mu.Lock()
	defer a.x.mu.Unlock()
	ct, err := a.x.lookupLocked(cityID)
	if err != nil {
		return platform.Stats{}, err
	}
	return ct.plat.Stats(), nil
}

// Stats snapshots the whole fleet.
func (a Admin) Stats() AdminStats {
	a.x.mu.Lock()
	defer a.x.mu.Unlock()
	out := AdminStats{
		Cities:        make([]CityStats, 0, len(a.x.ids)),
		JournalEvents: len(a.x.journal),
	}
	for i, id := range a.x.ids {
		ct := a.x.cities[id]
		st := ct.plat.Stats()
		out.Cities = append(out.Cities, CityStats{City: id, Restarts: ct.restarts, Stats: st})
		out.Restarts += ct.restarts
		if i == 0 {
			// Fold from the first snapshot, not the zero value: Merge ANDs
			// Closed, and a zero-value false would poison the aggregate.
			out.Aggregate = st
		} else {
			out.Aggregate.Merge(st)
		}
	}
	return out
}
