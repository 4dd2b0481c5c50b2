// Package gmm implements the distribution-fitting half of WATTER's
// threshold derivation (paper Section V-C): a one-dimensional Gaussian
// Mixture Model fitted with Expectation-Maximization over historical extra
// times, its CDF F, and the optimizer that picks the expected threshold
// θ* = argmax (p - θ)·F(θ) for each order (Algorithm 3).
package gmm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Component is a single weighted Gaussian.
type Component struct {
	Weight float64
	Mean   float64
	StdDev float64
}

// Model is a mixture of Gaussians over a scalar random variable.
type Model struct {
	Components []Component
}

// The EM fit's fixed settings.
const (
	// MaxIters bounds EM iterations.
	MaxIters = 200
	// Tol stops EM when the log-likelihood improves by less than this.
	Tol = 1e-6
	// MinStdDev floors component spread (seconds of extra time) to keep the
	// CDF well conditioned.
	MinStdDev = 1
)

// FitOptions controls the EM fit.
type FitOptions struct {
	// K is the number of mixture components; fewer samples than K fit one
	// component per sample.
	K int
	// Seed makes the k-means-style initialization deterministic.
	Seed int64
}

// Fit runs EM on the samples and returns the fitted mixture.
func Fit(samples []float64, opt FitOptions) (*Model, error) {
	if opt.K < 1 {
		return nil, fmt.Errorf("gmm: K = %d components, need at least 1", opt.K)
	}
	if len(samples) == 0 {
		return nil, errors.New("gmm: no samples")
	}
	if len(samples) < opt.K {
		opt.K = len(samples)
	}
	for _, x := range samples {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("gmm: invalid sample %v", x)
		}
	}

	comps := initComponents(samples, opt)
	n := len(samples)
	k := len(comps)
	resp := make([]float64, n*k)
	prevLL := math.Inf(-1)

	for iter := 0; iter < MaxIters; iter++ {
		// E-step: responsibilities and log-likelihood.
		var ll float64
		for i, x := range samples {
			var sum float64
			for j, c := range comps {
				v := float64(c.Weight * gaussPDF(x, c.Mean, c.StdDev))
				resp[i*k+j] = v
				sum += v
			}
			if sum <= 0 {
				// Degenerate point: spread responsibility uniformly.
				for j := range comps {
					resp[i*k+j] = 1 / float64(k)
				}
				sum = 1
				ll += math.Log(1e-300)
			} else {
				for j := range comps {
					resp[i*k+j] /= sum
				}
				ll += math.Log(sum)
			}
		}
		// M-step.
		for j := range comps {
			var nk, mean float64
			for i, x := range samples {
				nk += resp[i*k+j]
				mean += float64(resp[i*k+j] * x)
			}
			if nk < 1e-10 {
				// Dead component: re-seed on a random sample.
				rng := rand.New(rand.NewSource(opt.Seed + int64(iter*k+j)))
				comps[j] = Component{Weight: 1 / float64(k), Mean: samples[rng.Intn(n)], StdDev: stddevAll(samples)}
				continue
			}
			mean /= nk
			var vr float64
			for i, x := range samples {
				d := x - mean
				vr += float64(resp[i*k+j] * d * d)
			}
			sd := math.Sqrt(vr / nk)
			sd = max(sd, MinStdDev)
			comps[j] = Component{Weight: nk / float64(n), Mean: mean, StdDev: sd}
		}
		if ll-prevLL < Tol && iter > 0 {
			break
		}
		prevLL = ll
	}
	normalizeWeights(comps)
	return &Model{Components: comps}, nil
}

// initComponents seeds means on sorted-quantile centers (deterministic,
// k-means++-ish spread without randomness in the common path).
func initComponents(samples []float64, opt FitOptions) []Component {
	k := opt.K
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sd := max(stddevAll(samples), MinStdDev)
	comps := make([]Component, k)
	for j := 0; j < k; j++ {
		q := (float64(j) + 0.5) / float64(k)
		comps[j] = Component{
			Weight: 1 / float64(k),
			Mean:   s[int(q*float64(len(s)-1))],
			StdDev: sd,
		}
	}
	return comps
}

func normalizeWeights(comps []Component) {
	var sum float64
	for _, c := range comps {
		sum += c.Weight
	}
	if sum <= 0 {
		for j := range comps {
			comps[j].Weight = 1 / float64(len(comps))
		}
		return
	}
	for j := range comps {
		comps[j].Weight /= sum
	}
}

func stddevAll(xs []float64) float64 {
	if len(xs) < 2 {
		return 1
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var vr float64
	for _, x := range xs {
		d := x - mean
		vr += float64(d * d)
	}
	return math.Sqrt(vr / float64(len(xs)))
}

func gaussPDF(x, mu, sd float64) float64 {
	z := (x - mu) / sd
	return math.Exp(-0.5*z*z) / (sd * math.Sqrt2 * math.SqrtPi)
}

// CDF evaluates the mixture cumulative distribution F(x).
func (m *Model) CDF(x float64) float64 {
	var p float64
	for _, c := range m.Components {
		z := (x - c.Mean) / (c.StdDev * math.Sqrt2)
		p += float64(c.Weight * 0.5 * (1 + math.Erf(z)))
	}
	return p
}
