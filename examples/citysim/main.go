// Citysim runs a full synthetic-city evening peak through all five
// algorithms (GDP, GAS, and the three WATTER variants) and prints a
// side-by-side comparison — a miniature of the paper's Figure 3 columns.
//
//	go run ./examples/citysim            # CDC, harness defaults
//	go run ./examples/citysim -city nyc -n 3000 -m 220
package main

import (
	"flag"
	"fmt"
	"os"

	"watter/internal/dataset"
	"watter/internal/exp"
)

func main() {
	var (
		city = flag.String("city", "cdc", "city: nyc, cdc, xia")
		n    = flag.Int("n", 0, "orders (0 = default)")
		m    = flag.Int("m", 0, "workers (0 = default)")
	)
	flag.Parse()

	profile, err := dataset.ByName(*city)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p := exp.DefaultParams(profile)
	if *n > 0 {
		p.Orders = *n
	}
	if *m > 0 {
		p.Workers = *m
	}

	runner := exp.NewRunner()
	runner.Out = os.Stderr
	fmt.Printf("%s evening peak: n=%d orders, m=%d workers, tau=%.1f, eta=%.1f\n\n",
		profile.Name, p.Orders, p.Workers, p.TauScale, p.Eta)
	fmt.Printf("%-16s %14s %14s %13s %16s %10s\n",
		"algorithm", "extra time(s)", "unified cost", "service rate", "runtime(s/order)", "avg group")
	for _, alg := range exp.AlgNames {
		res, err := runner.RunOne(alg, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		mt := res.Metrics
		fmt.Printf("%-16s %14.0f %14.0f %12.1f%% %16.6f %10.2f\n",
			alg, mt.ExtraTime(), mt.UnifiedCost(), 100*mt.ServiceRate(),
			mt.RunningTime(), mt.AvgGroupSize())
	}
	fmt.Println("\nThese rows are one seed of one city; the ranking can change with the")
	fmt.Println("city, the load and the seed. `watterbench -fig fig5 -replicates N`")
	fmt.Println("reports every metric as a mean with its confidence interval.")
}
