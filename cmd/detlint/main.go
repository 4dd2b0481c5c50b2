// Command detlint is the multichecker for the repo's determinism
// contract (DESIGN.md §11–§12). It type-checks the requested packages
// from source and runs the detlint analyzers — the syntactic maprange
// (a map is read in sorted key order or under a //det:unordered reason),
// walltime, globalrand, floatrange, goroutinewrite, and the
// whole-module testonly (silent unless every package of the module is
// loaded) — printing findings in go-vet format and exiting 1 when any
// exist.
//
// Usage:
//
//	go run ./cmd/detlint [-json] [-annotations] [packages]
//
// Packages default to ./... relative to the enclosing module root. With
// -json, findings are emitted as a machine-readable report on stdout
// (CI uploads it as a workflow artifact, kept even when the step fails).
// With -annotations, the tool instead prints an inventory of every
// //det: tag in the tree (location, tag, justification) and exits 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"watter/internal/detlint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON report on stdout")
	annotations := flag.Bool("annotations", false, "print an inventory of every //det: tag in the tree and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: detlint [-json] [-annotations] [packages]\n\nanalyzers:\n")
		for _, a := range detlint.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	modDir, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		os.Exit(2)
	}
	if *annotations {
		if err := printAnnotations(modDir, *jsonOut); err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			os.Exit(2)
		}
		return
	}
	diags, npkgs, err := lint(modDir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		report := struct {
			Tool     string            `json:"tool"`
			Packages int               `json:"packages"`
			Findings []jsonFinding     `json:"findings"`
			Clean    bool              `json:"clean"`
			Counts   map[string]int    `json:"counts_by_analyzer"`
			Doc      map[string]string `json:"analyzers"`
		}{
			Tool:     "detlint",
			Packages: npkgs,
			Findings: make([]jsonFinding, 0, len(diags)),
			Clean:    len(diags) == 0,
			Counts:   make(map[string]int),
			Doc:      make(map[string]string),
		}
		for _, a := range detlint.All() {
			report.Doc[a.Name] = a.Doc
		}
		for _, d := range diags {
			report.Findings = append(report.Findings, jsonFinding{
				Analyzer: d.Analyzer,
				Pos:      relPos(modDir, d),
				Message:  d.Message,
			})
			report.Counts[d.Analyzer]++
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "detlint: %d finding(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	Pos      string `json:"pos"`
	Message  string `json:"message"`
}

// printAnnotations renders the //det: inventory (sorted, module-relative)
// as text or JSON.
func printAnnotations(modDir string, jsonOut bool) error {
	recs, err := detlint.CollectAnnotations(modDir)
	if err != nil {
		return err
	}
	if jsonOut {
		report := struct {
			Tool        string                     `json:"tool"`
			Annotations []detlint.AnnotationRecord `json:"annotations"`
			Count       int                        `json:"count"`
		}{Tool: "detlint-annotations", Annotations: recs, Count: len(recs)}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	for _, r := range recs {
		reason := r.Reason
		if reason == "" {
			reason = "(bare — fails the annotation audit)"
		}
		fmt.Printf("%s:%d: //det:%s %s\n", r.File, r.Line, r.Tag, reason)
	}
	fmt.Fprintf(os.Stderr, "detlint: %d annotation(s)\n", len(recs))
	return nil
}

// lint loads the patterns and runs the full suite, returning sorted
// findings and the number of packages analyzed.
func lint(modDir string, patterns []string) ([]detlint.Diagnostic, int, error) {
	loader, err := detlint.NewLoader(modDir)
	if err != nil {
		return nil, 0, err
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		return nil, 0, err
	}
	// One Program over every loaded package, so testonly sees every
	// production reference.
	prog := &detlint.Program{Pkgs: pkgs}
	var all []detlint.Diagnostic
	for _, pkg := range pkgs {
		diags, err := detlint.RunWith(pkg, detlint.All(), prog)
		if err != nil {
			return nil, 0, err
		}
		all = append(all, diags...)
	}
	detlint.SortDiagnostics(all)
	return all, len(pkgs), nil
}

// relPos renders a finding position relative to the module root so
// reports are stable across checkouts.
func relPos(modDir string, d detlint.Diagnostic) string {
	p := d.Pos
	if rel, err := filepath.Rel(modDir, p.Filename); err == nil {
		p.Filename = rel
	}
	return p.String()
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
