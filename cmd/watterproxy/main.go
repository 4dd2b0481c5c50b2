// Command watterproxy demonstrates and verifies the multi-city front
// tier: N city platforms behind one dispatch proxy, with the two
// properties that make the tier honest checked end to end —
//
//   - isolation: every city's metrics under the proxy are bit-identical
//     to the same city run alone on a standalone platform;
//   - recoverability: a city killed mid-run is rebuilt from its recorded
//     event journal, and the healed run's metrics are bit-identical to an
//     uninterrupted one.
//
// Usage:
//
//	watterproxy                         # 3 cities, 2 seeds, full verify
//	watterproxy -cities 6 -alg WATTER-timeout
//
// City profiles cycle through CDC, NYC and XIA. The crash arm submits
// proxy.Feed's release-ordered merge by hand, the sequence Proxy.Replay
// submits, so it can kill a city halfway. The command exits 1 when
// either proof comes back false. Both proofs are held in the test suite
// by internal/proxy's TestProxyIsolation and TestJournalReplayRecovery;
// this command shows them on a larger fleet.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"watter/internal/dataset"
	"watter/internal/exp"
	"watter/internal/order"
	"watter/internal/proxy"
	"watter/internal/sim"
)

func main() {
	var (
		cities  = flag.Int("cities", 3, "number of proxied city platforms")
		orders  = flag.Int("orders", 400, "orders per city")
		workers = flag.Int("workers", 30, "workers per city")
		alg     = flag.String("alg", "WATTER-online", "dispatch algorithm for every city")
		seed    = flag.Int64("seed", 1, "first workload seed")
		nseeds  = flag.Int("nseeds", 2, "seed replicates (each verified independently)")
		quiet   = flag.Bool("quiet", false, "suppress per-city lines")
	)
	flag.Parse()
	if *cities < 1 || *orders < 1 || *workers < 1 || *nseeds < 1 {
		fmt.Fprintln(os.Stderr, "watterproxy: -cities, -orders, -workers and -nseeds must be positive")
		os.Exit(2)
	}

	isolationOK, haOK := true, true
	var proxySeconds float64
	var journalEvents, restarts, totalOrders int
	for s := 0; s < *nseeds; s++ {
		r := runSeed(*cities, *orders, *workers, *alg, *seed+int64(s)*101, *quiet)
		isolationOK = isolationOK && r.isolation
		haOK = haOK && r.ha
		proxySeconds += r.proxySeconds
		journalEvents += r.journalEvents
		restarts += r.restarts
		totalOrders += r.orders
	}

	fmt.Printf("cities=%d orders/city=%d workers/city=%d alg=%s seeds=%d\n",
		*cities, *orders, *workers, *alg, *nseeds)
	fmt.Printf("  proxy throughput:        %.0f orders/s (%d orders in %.2fs)\n",
		float64(totalOrders)/proxySeconds, totalOrders, proxySeconds)
	fmt.Printf("  journal events:          %d (%d HA restarts replayed)\n", journalEvents, restarts)
	fmt.Printf("  per-city isolation:      bit-identical=%v\n", isolationOK)
	fmt.Printf("  HA journal-replay:       bit-identical=%v\n", haOK)

	if !isolationOK || !haOK {
		os.Exit(1)
	}
}

type seedResult struct {
	isolation, ha bool
	proxySeconds  float64
	journalEvents int
	restarts      int
	orders        int
}

// runSeed builds one fleet of cities and runs the three arms: standalone
// platforms (the reference), the proxy (isolation proof), and the proxy
// with a mid-run crash healed from the journal (recovery proof).
func runSeed(cities, orders, workers int, alg string, seed int64, quiet bool) seedResult {
	profiles := []dataset.Profile{dataset.CDC(), dataset.NYC(), dataset.XIA()}
	runner := exp.NewRunner()

	fatal := func(err error) {
		fmt.Fprintf(os.Stderr, "watterproxy: seed %d: %v\n", seed, err)
		os.Exit(1)
	}
	type cityDef struct {
		spec  proxy.CitySpec
		setup *exp.Setup
	}
	defs := make([]cityDef, cities)
	for i := 0; i < cities; i++ {
		profile := profiles[i%len(profiles)]
		p := exp.DefaultParams(profile)
		p.Orders = orders
		p.Workers = workers
		p.Seed = seed + int64(i)*17
		setup, err := runner.Setup(p)
		if err != nil {
			fatal(err)
		}
		defs[i] = cityDef{
			spec: proxy.CitySpec{
				ID:      fmt.Sprintf("%s-%d", profile.Name, i+1),
				Net:     setup.City.Net,
				Workers: setup.Fleet(),
				NewAlgorithm: func() sim.Algorithm {
					a, err := runner.Build(alg, p)
					if err != nil {
						return nil
					}
					return a
				},
				Options: setup.Options(false),
			},
			setup: setup,
		}
	}

	// Arm 1: every city standalone — the isolation reference.
	standalone := make(map[string]sim.Metrics, cities)
	for _, d := range defs {
		a, err := runner.Build(alg, d.setup.Params)
		if err != nil {
			fatal(err)
		}
		p, err := d.setup.Platform(a, false)
		if err != nil {
			fatal(err)
		}
		m, err := p.Replay(d.setup.Orders)
		if err != nil {
			fatal(err)
		}
		standalone[d.spec.ID] = strip(m)
	}

	specs := make([]proxy.CitySpec, cities)
	workloads := make(map[string][]*order.Order, cities)
	nOrders := 0
	for i, d := range defs {
		specs[i] = d.spec
		workloads[d.spec.ID] = d.setup.Orders
		nOrders += len(d.setup.Orders)
	}

	// Arm 2: the proxy, uninterrupted.
	px, err := proxy.New(specs)
	if err != nil {
		fatal(err)
	}
	start := time.Now()
	proxied, err := px.Replay(workloads)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	journalLen := len(px.Journal())

	isolation := true
	// Report in city definition order, not map order, so runs print (and
	// fail) identically.
	for _, d := range defs {
		id, want := d.spec.ID, standalone[d.spec.ID]
		got := strip(proxied[id])
		if got != want {
			isolation = false
			fmt.Fprintf(os.Stderr, "  ISOLATION BROKEN %s:\n    proxy:      %+v\n    standalone: %+v\n", id, got, want)
		} else if !quiet {
			fmt.Printf("  [seed %d] %-8s served %d/%d, isolation ok\n", seed, id, got.Served, got.Total)
		}
	}

	// Arm 3: the proxy with a mid-run crash on the middle city, detected
	// by a probe and healed by journal replay.
	victim := specs[cities/2].ID
	px2, err := proxy.New(specs)
	if err != nil {
		fatal(err)
	}
	feed, err := px2.Feed(workloads)
	if err != nil {
		fatal(err)
	}
	for i, e := range feed {
		if i == len(feed)/2 {
			if err := px2.Admin().Kill(victim); err != nil {
				fatal(err)
			}
			for _, h := range px2.Admin().Probe() {
				if h.City == victim && !h.Recovered {
					fatal(fmt.Errorf("probe failed to heal %s: %v", victim, h.Err))
				}
			}
		}
		if err := px2.Submit(e.City, e.Order); err != nil {
			fatal(err)
		}
	}
	healed, err := px2.Close()
	if err != nil {
		fatal(err)
	}
	restarts := px2.Admin().Stats().Restarts

	ha := true
	for _, d := range defs {
		id, want := d.spec.ID, proxied[d.spec.ID]
		if strip(healed[id]) != strip(want) {
			ha = false
			fmt.Fprintf(os.Stderr, "  HA DIVERGENCE %s:\n    healed: %+v\n    clean:  %+v\n", id, *healed[id], *want)
		}
	}
	if !quiet {
		fmt.Printf("  [seed %d] killed %s mid-run, %d restart(s), recovery identical=%v\n",
			seed, victim, restarts, ha)
	}

	return seedResult{
		isolation:     isolation,
		ha:            ha,
		proxySeconds:  elapsed,
		journalEvents: journalLen,
		restarts:      restarts,
		orders:        nOrders,
	}
}

// strip zeroes the one documented nondeterministic metrics field.
func strip(m *sim.Metrics) sim.Metrics {
	cp := *m
	cp.DecisionSeconds = 0
	return cp
}
