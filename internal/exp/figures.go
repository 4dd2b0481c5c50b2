package exp

import (
	"fmt"
	"io"
	"strings"

	"watter/internal/dataset"
)

// Sweep is one figure/table reproduction: a family of parameter points,
// each run for every compared algorithm, reported as the paper's four
// metric series.
type Sweep struct {
	// ID names the experiment ("fig3", "fig4", ...; see DESIGN.md E-index).
	ID string
	// Label describes the varied parameter (x axis).
	Label string
	// Points are the x values; Apply sets the corresponding field.
	Points []float64
	Apply  func(p Params, x float64) Params
	// Algs defaults to AlgNames when empty.
	Algs []string
}

// FigureSweeps returns every reproduction sweep for a city at the given
// base configuration. Scale factors below mirror the ratios of Table III:
// the paper sweeps n over 0.5x..1.25x of the default and m over 3k..6k
// against a 5k default.
func FigureSweeps(base Params) []Sweep {
	return []Sweep{
		{
			ID: "fig3", Label: "n (orders)",
			Points: []float64{0.5, 0.75, 1.0, 1.25},
			Apply: func(p Params, x float64) Params {
				p.Orders = int(float64(p.Orders) * x)
				return p
			},
		},
		{
			ID: "fig4", Label: "m (workers)",
			Points: []float64{0.6, 0.8, 1.0, 1.2},
			Apply: func(p Params, x float64) Params {
				p.Workers = int(float64(p.Workers) * x)
				return p
			},
		},
		{
			ID: "fig5", Label: "tau (deadline scale)",
			Points: []float64{1.2, 1.4, 1.6, 1.8},
			Apply: func(p Params, x float64) Params {
				p.TauScale = x
				return p
			},
		},
		{
			ID: "fig6", Label: "Kw (max capacity)",
			Points: []float64{2, 3, 4, 5},
			Apply: func(p Params, x float64) Params {
				p.MaxCap = int(x)
				return p
			},
		},
		{
			ID: "grid", Label: "grid index side (Appendix D)",
			Points: []float64{5, 10, 15, 20},
			Apply: func(p Params, x float64) Params {
				p.GridN = int(x)
				return p
			},
			Algs: []string{"WATTER-expect"},
		},
		{
			ID: "eta", Label: "eta (watching window, Appendix F)",
			Points: []float64{0.4, 0.6, 0.8, 1.0},
			Apply: func(p Params, x float64) Params {
				p.Eta = x
				return p
			},
			Algs: []string{"WATTER-expect", "WATTER-online", "WATTER-timeout"},
		},
		{
			ID: "dt", Label: "Δt (time slot, Appendix G)",
			Points: []float64{5, 10, 20, 40},
			Apply: func(p Params, x float64) Params {
				p.TickEvery = x
				return p
			},
			Algs: []string{"WATTER-expect", "WATTER-online", "WATTER-timeout"},
		},
		{
			ID: "gmm", Label: "GMM components K (ablation E9)",
			Points: []float64{1, 2, 4, 8},
			Apply: func(p Params, x float64) Params {
				p.Train.GMMComponents = int(x)
				return p
			},
			Algs: []string{"WATTER-expect"},
		},
		{
			ID: "omega", Label: "loss weight ω (ablation E10)",
			Points: []float64{0, 0.25, 0.5, 0.75, 1},
			Apply: func(p Params, x float64) Params {
				p.Train.Omega = x
				return p
			},
			Algs: []string{"WATTER-expect"},
		},
	}
}

// SweepByID finds a sweep by ID.
func SweepByID(base Params, id string) (Sweep, error) {
	for _, s := range FigureSweeps(base) {
		if s.ID == id {
			return s, nil
		}
	}
	return Sweep{}, fmt.Errorf("exp: unknown sweep %q", id)
}

// Jobs expands the sweep at base into its job list: points × algorithms,
// then seeds innermost (default {base.Seed}), each job carrying its point as
// X. SweepRunner.Run executes it; replicates share training as a Matrix's do.
func (s Sweep) Jobs(base Params, seeds []int64) []Job {
	reps := newReplicas(base, seeds)
	algs := s.Algs
	if len(algs) == 0 {
		algs = AlgNames
	}
	var jobs []Job
	for _, x := range s.Points {
		p := s.Apply(base, x)
		for _, alg := range algs {
			cell := fmt.Sprintf("%s/%s/%s=%g", alg, p.City.Name, s.ID, x)
			jobs = reps.add(jobs, Job{Alg: alg, P: p, X: x, Cell: cell})
		}
	}
	return jobs
}

// PrintSweep renders the paper-style table: one block per metric, rows =
// algorithms, columns = sweep points.
func PrintSweep(w io.Writer, s Sweep, city dataset.Profile, results []*Result) {
	metrics := []struct {
		name string
		get  func(*Result) float64
		fmt  string
	}{
		{"Extra Time (s, total Φ)", func(r *Result) float64 { return r.Metrics.ExtraTime() }, "%14.0f"},
		{"Unified Cost", func(r *Result) float64 { return r.Metrics.UnifiedCost() }, "%14.0f"},
		{"Service Rate (%)", func(r *Result) float64 { return 100 * r.Metrics.ServiceRate() }, "%14.1f"},
		{"Running Time (s/order)", func(r *Result) float64 { return r.Metrics.RunningTime() }, "%14.6f"},
	}
	var algs []string
	seen := map[string]bool{}
	for _, res := range results {
		if !seen[res.Alg] {
			seen[res.Alg] = true
			algs = append(algs, res.Alg)
		}
	}
	fmt.Fprintf(w, "== %s / %s — varying %s ==\n", s.ID, city.Name, s.Label)
	for _, m := range metrics {
		fmt.Fprintf(w, "-- %s --\n", m.name)
		fmt.Fprintf(w, "%-16s", s.Label)
		for _, x := range s.Points {
			fmt.Fprintf(w, "%14v", trimFloat(x))
		}
		fmt.Fprintln(w)
		for _, alg := range algs {
			fmt.Fprintf(w, "%-16s", alg)
			for _, x := range s.Points {
				res := findResult(results, alg, x)
				if res == nil {
					fmt.Fprintf(w, "%14s", "-")
					continue
				}
				fmt.Fprintf(w, m.fmt, m.get(res))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w)
}

// PrintCells renders matrix cell summaries: one row per cell with the four
// metrics as "mean ± ci95" across replicate seeds.
func PrintCells(w io.Writer, cells []CellSummary) {
	fmt.Fprintf(w, "%-14s %-5s %6s %6s %3s %5s %4s  %-18s %-18s %-16s %-20s %-14s\n",
		"alg", "city", "n", "m", "Kw", "tau", "reps",
		"extra_time", "unified_cost", "service_rate", "running_time", "elapsed_s")
	for _, c := range cells {
		fmt.Fprintf(w, "%-14s %-5s %6d %6d %3d %5.2f %4d  %-18s %-18s %-16s %-20s %-14s\n",
			c.Alg, c.City, c.Params.Orders, c.Params.Workers, c.Params.MaxCap, c.Params.TauScale,
			len(c.Seeds),
			fmt.Sprintf("%.0f±%.0f", c.ExtraTime.Mean, c.ExtraTime.CI95()),
			fmt.Sprintf("%.0f±%.0f", c.UnifiedCost.Mean, c.UnifiedCost.CI95()),
			fmt.Sprintf("%.3f±%.3f", c.ServiceRate.Mean, c.ServiceRate.CI95()),
			fmt.Sprintf("%.2g±%.1g", c.RunningTime.Mean, c.RunningTime.CI95()),
			fmt.Sprintf("%.2f±%.2f", c.Elapsed.Mean(), c.Elapsed.CI95()))
	}
}

func findResult(results []*Result, alg string, x float64) *Result {
	for _, r := range results {
		if r.Alg == alg && r.X == x {
			return r
		}
	}
	return nil
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%.2f", x)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
