// Package proxy is the multi-city front tier of the reproduction: one
// Proxy owns N independent city Platforms, routes order streams to the
// right city, drives every city's periodic checks from one coordinated
// clock, and multiplexes the per-city event streams into a single tagged
// journal with a deterministic merge order. On top of it sits an
// admin/ops plane (per-city pause/resume, unified per-city and aggregated
// stats, an HA-style health prober) modeled on the Codis
// proxy/dashboard/HA split — where Codis shards one keyspace over N Redis
// instances behind one router, this proxy shards a dispatch service over
// N city simulations behind one API.
//
// Two properties make the front tier honest rather than decorative, and
// both are proven by bit-identity tests:
//
//   - Isolation: cities share nothing — each platform owns its network
//     handle, fleet clone and algorithm instance — so a proxy running N
//     cities yields, for every city, per-seed metrics bit-identical to
//     that city run alone on a standalone Platform, regardless of how the
//     other cities' traffic interleaves.
//   - Recoverability: every event each city ever emitted is recorded
//     synchronously (the platform observer hook — lossless, unbuffered,
//     in-order), and the admitted orders plus tick boundaries in that
//     journal are exactly the city's input sequence. A crashed city is
//     rebuilt by replaying its journal into a fresh platform; during
//     replay every re-emitted event is checked against the recording, so
//     recovery is not just believed deterministic but verified
//     event-by-event, and the resumed run's final metrics are
//     bit-identical to an uninterrupted one.
//
// The Proxy serializes all operations behind one mutex: callers may feed
// it from multiple goroutines, but the journal's merge order is the
// serialization order, so deterministic journals require a deterministic
// feed (one feeding goroutine, or the batch Replay).
package proxy

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"

	"watter/internal/order"
	"watter/internal/platform"
	"watter/internal/roadnet"
	"watter/internal/sim"
)

// Routing and lifecycle sentinels (test with errors.Is).
var (
	// ErrClosed is returned by every operation after Proxy.Close.
	ErrClosed = errors.New("proxy: closed")
	// ErrUnknownCity is returned when a city ID matches no owned platform.
	ErrUnknownCity = errors.New("proxy: unknown city")
	// ErrPaused is returned (wrapped, with the city named) by Submit to a
	// city the operator paused; the city stays usable and Resume lifts it.
	ErrPaused = errors.New("proxy: city paused")
	// ErrCityDown is returned (wrapped, with the city named and the cause
	// attached) when a crashed city cannot be healed: its journal replay
	// failed or diverged from the recording. The city stays down, and every
	// later operation on it retries the heal.
	ErrCityDown = errors.New("proxy: city down")
)

// CitySpec declares one city the proxy owns. The spec is a blueprint, not
// a live resource: the proxy builds a fresh platform from it at startup
// and again on every HA restart, so every field must be reusable.
type CitySpec struct {
	// ID names the city on the routing, admin and journal surfaces. IDs
	// must be unique and non-empty.
	ID string
	// Net is the city's travel-time oracle. It is shared across restarts
	// (networks are immutable or internally synchronized, DESIGN.md §8),
	// never rebuilt.
	Net roadnet.Network
	// Workers are fleet prototypes: cloned on every (re)start so platform
	// incarnations never share mutable worker state, and a restart begins
	// from the same initial fleet the original run did.
	Workers []*order.Worker
	// NewAlgorithm builds a fresh dispatch policy per platform
	// incarnation. Algorithms are stateful (pool contents, schedules,
	// caches), so a restart must never reuse one; nil means the platform
	// default (WATTER-online). The factory must be deterministic — every
	// call must yield an identically-configured policy — or journal
	// replay cannot reproduce the recorded run.
	NewAlgorithm func() sim.Algorithm
	// Options are re-applied on every (re)start and must be pure
	// configuration (WithTick, WithConfig, WithMeasuredTime, ...).
	// Do not pass WithAlgorithm (stateful across restarts — use
	// NewAlgorithm) or WithObserver (the proxy appends its own journal
	// observer last, which would override it).
	Options []platform.Option
}

// CityEvent is one journal entry: a platform event tagged with the city
// that emitted it.
type CityEvent struct {
	City  string
	Event platform.Event
}

// city is one owned platform plus its front-tier bookkeeping.
type city struct {
	id   string
	spec CitySpec
	plat *platform.Platform
	// journal is this city's complete recorded event sequence — the
	// restart source of truth. It only grows; the merged journal holds
	// the same events tagged and interleaved.
	journal  []platform.Event
	paused   bool
	down     bool
	restarts int
	// replay is non-nil while a restart is replaying the journal: it
	// suppresses re-recording and verifies every re-emitted event against
	// the recording.
	replay *replayCursor
}

// Proxy is the multi-city front tier. Safe for concurrent use; all
// operations serialize behind one mutex.
type Proxy struct {
	mu       sync.Mutex
	cities   map[string]*city
	ids      []string // deterministic iteration order = spec order
	journal  []CityEvent
	closed   bool
	closeM   map[string]*sim.Metrics
	closeErr error
}

// New builds a proxy owning one platform per spec. Specs are validated
// (at least one city, unique non-empty IDs) and every city's platform is
// constructed eagerly, so configuration errors surface here rather than
// at first traffic. A crashed city always heals from its journal.
func New(specs []CitySpec) (*Proxy, error) {
	if len(specs) == 0 {
		return nil, errors.New("proxy: no cities")
	}
	x := &Proxy{cities: make(map[string]*city, len(specs))}
	for i, spec := range specs {
		if spec.ID == "" {
			return nil, fmt.Errorf("proxy: city %d has an empty ID", i)
		}
		if _, dup := x.cities[spec.ID]; dup {
			return nil, fmt.Errorf("proxy: duplicate city ID %q", spec.ID)
		}
		ct := &city{id: spec.ID, spec: spec}
		plat, err := x.newPlatform(ct)
		if err != nil {
			return nil, fmt.Errorf("proxy: city %q: %w", spec.ID, err)
		}
		ct.plat = plat
		x.cities[spec.ID] = ct
		x.ids = append(x.ids, spec.ID)
	}
	return x, nil
}

// newPlatform stands up a fresh platform incarnation for a city: cloned
// fleet, fresh algorithm, the spec's options, and the proxy's journal
// observer appended last so it cannot be overridden.
func (x *Proxy) newPlatform(ct *city) (*platform.Platform, error) {
	ws := make([]*order.Worker, len(ct.spec.Workers))
	for i, w := range ct.spec.Workers {
		if w == nil {
			return nil, fmt.Errorf("worker %d is nil", i)
		}
		cp := *w
		ws[i] = &cp
	}
	opts := make([]platform.Option, 0, len(ct.spec.Options)+2)
	opts = append(opts, ct.spec.Options...)
	if ct.spec.NewAlgorithm != nil {
		alg := ct.spec.NewAlgorithm()
		if alg == nil {
			return nil, errors.New("NewAlgorithm returned nil")
		}
		opts = append(opts, platform.WithAlgorithm(alg))
	}
	opts = append(opts, platform.WithObserver(func(ev platform.Event) { x.record(ct, ev) }))
	return platform.New(ct.spec.Net, ws, opts...)
}

// record is the journal hook: invoked synchronously by a city's platform
// for every event, under the proxy lock (all platform calls happen inside
// locked proxy methods), so the merged journal's order is exactly the
// serialization order of proxy operations — deterministic for any
// deterministic feed. During a restart's replay it verifies instead of
// recording.
func (x *Proxy) record(ct *city, ev platform.Event) {
	if ct.replay != nil {
		ct.replay.check(ev)
		return
	}
	ct.journal = append(ct.journal, ev)
	x.journal = append(x.journal, CityEvent{City: ct.id, Event: ev})
}

// lookupLocked resolves a city ID.
func (x *Proxy) lookupLocked(cityID string) (*city, error) {
	ct := x.cities[cityID]
	if ct == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCity, cityID)
	}
	return ct, nil
}

// Submit routes one order to its city. Orders obey the platform's
// streaming contract per city (validated, non-decreasing release within
// the city); different cities' streams interleave freely. A paused city
// refuses with ErrPaused. Traffic hitting a crashed city heals it
// first (the journal is replayed into a fresh platform, then the order
// goes through), or reports ErrCityDown if the replay fails.
func (x *Proxy) Submit(cityID string, o *order.Order) error {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return ErrClosed
	}
	ct, err := x.lookupLocked(cityID)
	if err != nil {
		return err
	}
	if ct.paused {
		return fmt.Errorf("proxy: city %q: %w", cityID, ErrPaused)
	}
	if err := x.healLocked(ct); err != nil {
		return err
	}
	return ct.plat.Submit(o)
}

// healLocked brings a city back to a servable platform, or explains why
// it can't. It is the wedge detector every operation on a city runs first:
// a platform that reports closed while the proxy believes the city is
// running means the city died under us.
func (x *Proxy) healLocked(ct *city) error {
	if !ct.down && !ct.plat.Stats().Closed {
		return nil
	}
	ct.down = true
	return x.restartLocked(ct)
}

// Tick advances the coordinated clock: every running city fires its next
// periodic check, in the deterministic routing order. Paused cities skip
// (their virtual clock freezes; skipped boundaries fire on resume or at
// the next submit/close, so nothing is lost); crashed cities heal first.
// Returns the latest simulation time ticked — with a
// uniform Δt across cities, the common boundary they all reached.
func (x *Proxy) Tick() (float64, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.closed {
		return 0, ErrClosed
	}
	var latest float64
	for _, id := range x.ids {
		ct := x.cities[id]
		if ct.paused {
			continue
		}
		if err := x.healLocked(ct); err != nil {
			return 0, err
		}
		t, err := ct.plat.Tick()
		if err != nil {
			return 0, fmt.Errorf("proxy: city %q: %w", id, err)
		}
		if t > latest {
			latest = t
		}
	}
	return latest, nil
}

// Replay is the batch entry point: every city's pre-materialized workload
// feeds through the router in one global release-ordered interleaving
// (ties resolve by routing order, so the merge is deterministic), then
// the proxy closes and returns per-city final metrics. Orders are cloned;
// the caller's slices are never touched. Cities absent from workloads
// still run (they just drain empty at close).
func (x *Proxy) Replay(workloads map[string][]*order.Order) (map[string]*sim.Metrics, error) {
	x.mu.Lock()
	if x.closed {
		x.mu.Unlock()
		return nil, ErrClosed
	}
	type entry struct {
		city *city
		o    *order.Order
	}
	var feed []entry
	// Deterministic construction order: cities in routing order, orders in
	// slice order; the stable sort by release then keeps ties in exactly
	// this order.
	for _, id := range x.ids {
		ct := x.cities[id]
		for i, o := range workloads[id] {
			if o == nil {
				x.mu.Unlock()
				return nil, fmt.Errorf("proxy: city %q: order %d is nil", id, i)
			}
			cp := *o
			feed = append(feed, entry{city: ct, o: &cp})
		}
	}
	// Report the alphabetically first unknown city, so the error a caller
	// sees never depends on map iteration order.
	for _, id := range slices.Sorted(maps.Keys(workloads)) {
		if _, ok := x.cities[id]; !ok {
			x.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownCity, id)
		}
	}
	sort.SliceStable(feed, func(i, j int) bool { return feed[i].o.Release < feed[j].o.Release })
	x.mu.Unlock()

	for _, e := range feed {
		if err := x.Submit(e.city.id, e.o); err != nil {
			return nil, fmt.Errorf("proxy: city %q: %w", e.city.id, err)
		}
	}
	return x.Close()
}

// Close drains every city (in routing order), memoizes and returns the
// per-city final metrics. Like Platform.Close it is idempotent: later
// calls return the first call's exact result. Crashed cities are healed
// first so their pooled orders still resolve; a city that cannot be healed
// contributes its ErrCityDown error instead of metrics.
func (x *Proxy) Close() (map[string]*sim.Metrics, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.closeLocked()
}

func (x *Proxy) closeLocked() (map[string]*sim.Metrics, error) {
	if x.closed {
		return x.closeM, x.closeErr
	}
	out := make(map[string]*sim.Metrics, len(x.ids))
	var errs []error
	for _, id := range x.ids {
		ct := x.cities[id]
		if err := x.healLocked(ct); err != nil {
			errs = append(errs, err)
			continue
		}
		m, err := ct.plat.Close()
		if err != nil {
			errs = append(errs, fmt.Errorf("proxy: city %q: %w", id, err))
			continue
		}
		out[id] = m
	}
	// Flip closed only after draining: record() consults no closed flag,
	// and the drains above must still journal their tail events.
	x.closed = true
	x.closeM = out
	x.closeErr = errors.Join(errs...)
	return x.closeM, x.closeErr
}

// restartLocked is HA recovery for a city healLocked marked down: tear the old incarnation down (Abort, a
// no-op on the crashed platform it is called for), build a fresh platform from the spec, and replay the city's recorded
// journal into it. Every event the replay re-emits is verified against
// the recording — divergence fails the restart rather than resuming a
// corrupted city: the half-replayed platform is aborted and the city stays
// down. The journal itself is never touched: it remains the append-only
// history across any number of incarnations. A failed restart's error
// wraps ErrCityDown.
func (x *Proxy) restartLocked(ct *city) error {
	ct.plat.Abort()
	plat, err := x.newPlatform(ct)
	if err != nil {
		return fmt.Errorf("%w: %q: restart: %w", ErrCityDown, ct.id, err)
	}
	cur := &replayCursor{journal: ct.journal}
	ct.replay = cur
	ct.plat = plat
	rerr := replayJournal(plat, ct.journal)
	ct.replay = nil
	if rerr == nil {
		rerr = cur.done()
	}
	if rerr != nil {
		plat.Abort()
		return fmt.Errorf("%w: %q: restart: journal replay: %w", ErrCityDown, ct.id, rerr)
	}
	ct.down = false
	ct.restarts++
	return nil
}

// Cities returns the city IDs in routing order.
func (x *Proxy) Cities() []string {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]string, len(x.ids))
	copy(out, x.ids)
	return out
}

// Journal returns a snapshot of the merged tagged journal.
func (x *Proxy) Journal() []CityEvent {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]CityEvent, len(x.journal))
	copy(out, x.journal)
	return out
}

// CityJournal returns a snapshot of one city's recorded event sequence —
// the exact input a restart replays.
func (x *Proxy) CityJournal(cityID string) ([]platform.Event, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	ct, err := x.lookupLocked(cityID)
	if err != nil {
		return nil, err
	}
	out := make([]platform.Event, len(ct.journal))
	copy(out, ct.journal)
	return out, nil
}
