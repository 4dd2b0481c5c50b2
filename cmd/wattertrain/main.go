// Command wattertrain runs WATTER's offline stage in isolation: simulate a
// historical day under the behavior policy, fit the extra-time GMM, train
// the value network with the blended TD + target loss, and save the
// network weights for later online use.
//
// Usage:
//
//	wattertrain -city nyc -hist 3000 -steps 3000 -out model-nyc.gob
//	wattersim -city nyc -alg WATTER-expect -model model-nyc.gob
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"watter/internal/dataset"
	"watter/internal/exp"
)

func main() {
	var (
		city  = flag.String("city", "cdc", "city: nyc, cdc, xia")
		hist  = flag.Int("hist", 2000, "historical order count for experience generation")
		steps = flag.Int("steps", 2000, "gradient steps")
		k     = flag.Int("k", 3, "GMM components")
		omega = flag.Float64("omega", 0.5, "loss blend ω (1 = pure TD, 0 = pure target)")
		out   = flag.String("out", "", "write trained network weights (gob) to this file")
		seed  = flag.Int64("seed", 1, "seed")
	)
	flag.Parse()

	profile, err := dataset.ByName(*city)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p := exp.DefaultParams(profile)
	p.Seed = *seed
	p.Train.HistoricalOrders = *hist
	p.Train.TrainSteps = *steps
	p.Train.GMMComponents = *k
	p.Train.Omega = *omega

	runner := exp.NewRunner()
	runner.Out = os.Stderr
	// Build trains (once, cached) and is what reports a failed training run;
	// parameters exp refuses are a usage error.
	if _, err := runner.Build("WATTER-expect", p); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, exp.ErrInvalidParams) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	trained := runner.Train(p)

	fmt.Printf("city=%s replay=%d params=%d\n",
		profile.Name, trained.Trainer.ReplayLen(), trained.Trainer.Network().NumParams())
	fmt.Println("fitted extra-time GMM components (weight, mean s, stddev s):")
	for _, c := range trained.GMM.Components {
		fmt.Printf("  %.3f  %8.1f  %8.1f\n", c.Weight, c.Mean, c.StdDev)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		if err := trained.Save(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("saved model bundle (featurizer + GMM + value net) to %s\n", *out)
	}
}
