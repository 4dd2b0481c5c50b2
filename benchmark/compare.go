package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"watter/internal/stats"
)

// loadReports reads one result file, or every *.json of a directory, and
// groups the end-to-end reports by workload (traced reports carry no
// bounded metric and are skipped).
func loadReports(path string) (map[string][]*report, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	by := make(map[string][]*report)
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(blob, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rep.Trace == 0 {
			by[rep.Workload] = append(by[rep.Workload], &rep)
		}
	}
	if len(by) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end result files", path)
	}
	return by, nil
}

// compareResults prints, for every workload both sides have and every
// end-to-end metric, the two per-metric medians and b's ratio to a (the
// base). It returns false when b is worse than a by more than the
// metric's bound anywhere, or when either side recorded failed operations.
func compareResults(out io.Writer, a, b string) (bool, error) {
	as, err := loadReports(a)
	if err != nil {
		return false, err
	}
	bs, err := loadReports(b)
	if err != nil {
		return false, err
	}
	ok := true
	shared := 0
	fmt.Fprintf(out, "%-12s %-26s %14s %14s %9s %6s\n", "workload", "metric", "a (base)", "b", "b/a", "bound")
	for _, s := range specs {
		ra, rb := as[s.name], bs[s.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		shared++
		for _, side := range [][]*report{ra, rb} {
			for _, r := range side {
				if !r.Correct {
					fmt.Fprintf(out, "%-12s seed %d: %d of %d operations failed\n", s.name, r.Seed, r.Failed, r.Attempted)
					ok = false
				}
			}
		}
		for _, d := range endToEnd {
			va, vb := medianOf(ra, d.name), medianOf(rb, d.name)
			ratio := vb / va
			worse := ratio - 1
			if d.better == "higher" {
				worse = 1 - ratio
			}
			verdict := ""
			if !(worse <= d.bound) { // also catches NaN from a zero base
				verdict = "  WORSE"
				ok = false
			}
			fmt.Fprintf(out, "%-12s %-26s %14.6g %14.6g %9.4f %5.1f%%%s\n", s.name, d.name, va, vb, ratio, d.bound*100, verdict)
		}
	}
	if shared == 0 {
		return false, fmt.Errorf("%s and %s share no workload", a, b)
	}
	fmt.Fprintf(out, "a = %s (%s), b = %s (%s)\n", a, runsOf(as), b, runsOf(bs))
	return ok, nil
}

func medianOf(reps []*report, metric string) float64 {
	vals := make([]float64, len(reps))
	for i, r := range reps {
		vals[i] = r.Metrics[metric].Value
	}
	return stats.Percentile(vals, 50)
}

// runsOf summarizes how many runs back each workload's medians.
func runsOf(by map[string][]*report) string {
	s := ""
	for _, sp := range specs {
		if n := len(by[sp.name]); n > 0 {
			s += fmt.Sprintf(" %s:%d", sp.name, n)
		}
	}
	return "runs" + s
}
