// Command benchgate is the CI bench-regression gate: it pairs every committed
// BENCH_*.json with the freshly produced report of the same name and fails
// when a guarantee is false, a measurement left its band, or the two reports
// cannot be compared. What is compared, and how, is the report's own
// declaration — see internal/benchfmt for the schema, the four metric kinds
// and the refusals.
//
// Usage:
//
//	benchgate BASELINE_DIR FRESH_DIR
//
// Exit status is non-zero when any check fails, any pair is refused or a
// fresh report is missing.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"watter/internal/benchfmt"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchgate BASELINE_DIR FRESH_DIR")
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	if !run(flag.Arg(0), flag.Arg(1), os.Stdout) {
		fmt.Fprintln(os.Stderr, "benchgate: benchmark baselines regressed")
		os.Exit(1)
	}
}

// run gates every BENCH_*.json of baseDir against its namesake in freshDir,
// printing one line per check in file, row, metric order, and reports whether
// everything passed.
func run(baseDir, freshDir string, out io.Writer) bool {
	baselines, _ := filepath.Glob(filepath.Join(baseDir, "BENCH_*.json")) // the pattern is well-formed
	if len(baselines) == 0 {
		fmt.Fprintf(out, "FAIL  no BENCH_*.json in %s\n", baseDir)
		return false
	}
	passed, ok := 0, true
	for _, basePath := range baselines {
		name := filepath.Base(basePath)
		checks, err := gateFile(basePath, filepath.Join(freshDir, name))
		if err != nil {
			fmt.Fprintf(out, "FAIL  %-18s %v\n", name, err)
			ok = false
			continue
		}
		for _, c := range checks {
			status := "ok  "
			if !c.OK {
				status, ok = "FAIL", false
			} else {
				passed++
			}
			fmt.Fprintf(out, "%s  %-18s %-52s %-9s %s\n", status, name, c.Row+"."+c.Metric, c.Kind, c.Note)
		}
	}
	if ok {
		fmt.Fprintf(out, "benchgate: %d checks passed across %d reports\n", passed, len(baselines))
	}
	return ok
}

func gateFile(basePath, freshPath string) ([]benchfmt.Check, error) {
	baseline, err := benchfmt.Read(basePath)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	fresh, err := benchfmt.Read(freshPath)
	if err != nil {
		return nil, fmt.Errorf("fresh: %w", err)
	}
	return benchfmt.Gate(baseline, fresh)
}
