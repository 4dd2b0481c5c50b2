// Live demonstrates the event-driven platform API: orders stream into a
// Platform one at a time while a consumer goroutine watches the typed
// event bus — admissions, dispatches, rejections and per-tick metric
// snapshots — exactly the surface a dashboard or admission controller
// would build on. Replay on the same platform reproduces the paper's
// evaluation; this is the live-traffic mode the platform grew for.
//
//	go run ./examples/live
//	go run ./examples/live -city nyc -n 800 -timeout
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"sort"

	"watter"
	"watter/internal/dataset"
)

func main() {
	var (
		city    = flag.String("city", "cdc", "city: nyc, cdc, xia")
		n       = flag.Int("n", 500, "orders to stream")
		m       = flag.Int("m", 60, "workers")
		timeout = flag.Bool("timeout", false, "use WATTER-timeout instead of WATTER-online")
	)
	flag.Parse()

	profile, err := dataset.ByName(*city)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	built := profile.Build()
	orders := built.Orders(watter.WorkloadConfig{Orders: *n, Seed: 1})
	workers := built.Workers(*m, 4, 2)

	alg := watter.NewOnline()
	if *timeout {
		alg = watter.NewTimeout()
	}
	p, err := watter.New(built.Net, workers,
		watter.WithTick(10),
		watter.WithAlgorithm(alg),
		watter.WithMeasuredTime(false),
	)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Subscribe before the first Submit (and on the feeding goroutine —
	// Events is not safe to call concurrently with Submit/Close), then
	// hand the channel to the consumer: a minimal live dashboard.
	// Dispatch sizes accumulate into a histogram; every 30th tick prints
	// a status line.
	events := p.Events()
	done := make(chan struct{})
	sizes := map[int]int{}
	var rejected int
	go func() {
		defer close(done)
		ticks := 0
		for ev := range events {
			switch e := ev.(type) {
			case watter.GroupDispatched:
				sizes[e.Size()]++
			case watter.OrderRejected:
				rejected++
			case watter.TickCompleted:
				ticks++
				if ticks%30 == 0 {
					m := e.Metrics
					fmt.Printf("[t=%5.0fs] served=%4d rejected=%4d extra=%7.0fs rate=%5.1f%%\n",
						e.Time, m.Served, m.Rejected, m.ExtraTime(), 100*m.ServiceRate())
				}
			}
		}
	}()

	// The feeder: orders arrive in release order, as a live ingest would
	// deliver them. Submit validates and errors instead of coercing.
	sort.SliceStable(orders, func(i, j int) bool { return orders[i].Release < orders[j].Release })
	for _, o := range orders {
		if err := p.Submit(o); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	metrics, err := p.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	<-done

	fmt.Printf("\n%s %s over %d streamed orders, %d workers:\n", profile.Name, alg.Name(), *n, *m)
	fmt.Printf("  %s\n", metrics)
	fmt.Printf("  dispatch sizes: ")
	for _, k := range slices.Sorted(maps.Keys(sizes)) {
		fmt.Printf("%dx%d ", k, sizes[k])
	}
	fmt.Printf("(events saw %d rejections; metrics say %d)\n", rejected, metrics.Rejected)
}
