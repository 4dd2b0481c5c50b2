// Command detlint is the multichecker for the repo's determinism
// contract (DESIGN.md §11). It type-checks the requested packages from
// source and runs the detlint analyzers — maprange (a map is read in
// sorted key order, with no annotation escape), walltime, globalrand and
// the whole-module testonly (silent unless every package of the module
// is loaded) — printing findings in go-vet format and exiting 1 when any
// exist.
//
// Usage:
//
//	go run ./cmd/detlint [-annotations] [packages]
//
// Packages default to ./... relative to the enclosing module root. With
// -annotations, the tool instead prints an inventory of every //det: tag
// in the tree (location, tag, justification) and exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"watter/internal/detlint"
)

func main() {
	annotations := flag.Bool("annotations", false, "print an inventory of every //det: tag in the tree and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: detlint [-annotations] [packages]\n\nanalyzers:\n")
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
		if err := printAnnotations(modDir); err != nil {
			fmt.Fprintln(os.Stderr, "detlint:", err)
			os.Exit(2)
		}
		return
	}
	diags, _, err := lint(modDir, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// printAnnotations renders the //det: inventory, sorted and
// module-relative.
func printAnnotations(modDir string) error {
	recs, err := detlint.CollectAnnotations(modDir)
	if err != nil {
		return err
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
