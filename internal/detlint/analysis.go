// Package detlint statically enforces the repo's determinism contract:
// per-seed runs must be bit-identical regardless of parallelism, caching,
// or process topology (DESIGN.md §8, §11). It is a suite of analyzers in
// the shape of golang.org/x/tools/go/analysis — the build container is
// offline, so the Analyzer/Pass/Diagnostic surface is reimplemented here
// on the standard library alone; if x/tools ever lands in go.mod the
// analyzers port by swapping this file for the real package.
//
// Analyzers:
//
//	maprange   — a map is read in sorted key order, with no annotation
//	             escape: every `for … range` over a map is flagged, and
//	             so is maps.Keys/Values/All unless it is
//	             slices.Sorted*'s direct argument.
//	walltime   — time.Now / time.Since / time.Sleep (and friends) are
//	             forbidden outside package main and //det:wallclock sites.
//	globalrand — package-level math/rand functions are forbidden; all
//	             randomness flows through rand.New(rand.NewSource(seed)).
//
// The whole-module layer (testonly.go) adds one more:
//
//	testonly — an exported internal/ identifier needs a non-test
//	           reference, a facade alias or a //det:api annotation.
//
// Concurrency is checked at run time, by the race detector over the
// tests that start the module's goroutines (DESIGN.md §12).
package detlint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one static check. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics.
	Name string
	// Doc is the one-paragraph contract the analyzer enforces.
	Doc string
	// Run applies the analyzer to one type-checked package, reporting
	// findings through pass.Reportf.
	Run func(pass *Pass) error
}

// All returns the full detlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{MapRange, WallTime, GlobalRand, TestOnly}
}

// A Pass provides one analyzer run with a single type-checked package,
// mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Annot indexes //det: annotations by file line (a detlint extension;
	// x/tools analyzers would re-derive this from File.Comments).
	Annot *Annotations
	// Prog is the whole-module view testonly checks against.
	Prog *Program

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: an analyzer name, a position, and a
// human-readable message.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String formats the diagnostic the way go vet does:
// path:line:col: analyzer: message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// A Program is the whole-module view behind testonly: every loaded
// package and, built on first use, the reference sets over them. Build
// one per lint run and share it across packages via RunWith.
type Program struct {
	Pkgs []*Package

	api *apiIndex
}

// RunWith applies every analyzer in suite to pkg against a shared
// whole-module Program and returns the findings in file/line order.
func RunWith(pkg *Package, suite []*Analyzer, prog *Program) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range suite {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Annot:     pkg.Annot,
			Prog:      prog,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
	}
	SortDiagnostics(diags)
	return diags, nil
}
