// Training demonstrates the full Section VI pipeline end to end on a small
// synthetic city: simulate a historical day under the behavior policy to
// generate MDP experience, train the value network with the blended
// TD + target loss, then run the learned WATTER-expect policy online and
// compare it against the untrained variants.
package main

import (
	"fmt"
	"os"

	"watter/internal/dataset"
	"watter/internal/exp"
)

func main() {
	p := exp.DefaultParams(dataset.XIA())
	p.Orders = 1200
	p.Workers = 110
	p.Train.HistoricalOrders = 1000
	p.Train.TrainSteps = 1500

	runner := exp.NewRunner()
	runner.Out = os.Stderr

	fmt.Println("offline stage: behavior simulation -> GMM fit -> value-network training")
	trained := runner.Train(p)
	fmt.Printf("  replay memory:   %d transitions\n", trained.Trainer.ReplayLen())
	fmt.Printf("  value network:   %d parameters\n", trained.Trainer.Network().NumParams())
	fmt.Println("  extra-time GMM:")
	for _, c := range trained.GMM.Components {
		fmt.Printf("    weight %.3f mean %6.1f s stddev %6.1f s\n", c.Weight, c.Mean, c.StdDev)
	}

	fmt.Println("\nonline stage: learned thresholds vs the fixed strategies")
	for _, alg := range []string{"WATTER-online", "WATTER-timeout", "WATTER-expect"} {
		res, err := runner.RunOne(alg, p)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		mt := res.Metrics
		fmt.Printf("  %-16s extra=%8.0fs unified=%9.0f rate=%5.1f%% avg-group=%.2f\n",
			alg, mt.ExtraTime(), mt.UnifiedCost(), 100*mt.ServiceRate(), mt.AvgGroupSize())
	}
	fmt.Println("\nThe learned policy holds an order while its value network predicts")
	fmt.Println("a better group is coming, and dispatches it otherwise; whether that")
	fmt.Println("beats the fixed strategies here is what the three rows above measure.")
}
