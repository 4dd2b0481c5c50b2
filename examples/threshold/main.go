// Threshold walks through Section V of the paper on synthetic data: fit a
// Gaussian Mixture Model to historical extra times with EM, inspect the
// CDF, and maximize the reduced METRS objective (p - θ)·F(θ) per order to
// obtain the expected threshold θ* — comparing golden-section search with
// the paper's gradient descent.
package main

import (
	"fmt"
	"math/rand"

	"watter/internal/gmm"
)

func main() {
	// Synthetic "historical extra times": a fast cluster (well-grouped hot
	// area orders) and a slow cluster (awkward suburban orders).
	rng := rand.New(rand.NewSource(7))
	var hist []float64
	for i := 0; i < 5000; i++ {
		if rng.Float64() < 0.65 {
			hist = append(hist, abs(90+rng.NormFloat64()*25))
		} else {
			hist = append(hist, abs(320+rng.NormFloat64()*70))
		}
	}

	model, err := gmm.Fit(hist, gmm.FitOptions{K: 3, Seed: 1})
	if err != nil {
		panic(err)
	}
	fmt.Println("fitted GMM over 5000 historical extra times:")
	for _, c := range model.Components {
		fmt.Printf("  weight %.3f  mean %6.1f s  stddev %6.1f s\n", c.Weight, c.Mean, c.StdDev)
	}

	fmt.Println("\nCDF F(θ) — probability a dispatch with threshold θ fires:")
	for _, th := range []float64{50, 100, 150, 200, 300, 400} {
		fmt.Printf("  F(%3.0f) = %.3f\n", th, model.CDF(th))
	}

	fmt.Println("\noptimal threshold θ* = argmax (p-θ)F(θ) per order penalty p:")
	fmt.Printf("  %8s %10s %10s %12s\n", "p (s)", "θ* golden", "θ* grad", "gain (p-θ)F")
	for _, p := range []float64{150, 250, 400, 600, 900} {
		golden := gmm.OptimalThreshold(model, p)
		grad := gmm.GradientThreshold(model, p, 2000, 0)
		fmt.Printf("  %8.0f %10.1f %10.1f %12.1f\n", p, golden, grad, gmm.Gain(model, p, golden))
	}

	fmt.Println("\nReading: impatient orders (small p) get θ* near their whole budget —")
	fmt.Println("dispatch almost immediately; patient orders (large p) get θ* just past")
	fmt.Println("the fast cluster — hold out for a good group, but no longer.")
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
