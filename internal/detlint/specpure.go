package detlint

// specpure enforces the speculation contract (DESIGN.md §8, §12): every
// function reachable from a //det:specroot-annotated root must be
// write-free outside //det:scratch types. The insert prewarm is
// bit-identical at any goroutine count only because its pair tasks never
// touch shared state; this analyzer turns that invariant into a
// compile-time gate.

import (
	"fmt"
	"go/token"
)

// SpecPure reports shared-state writes reachable from speculation roots.
var SpecPure = &Analyzer{
	Name: "specpure",
	Doc:  "functions reachable from a //det:specroot must not write outside //det:scratch types (escape: //det:specwrite)",
	Run:  runSpecPure,
}

func runSpecPure(pass *Pass) error {
	prog := pass.Prog
	if prog == nil {
		return fmt.Errorf("specpure requires an effects Program (use RunWith)")
	}
	var pkg *Package
	for _, p := range prog.Pkgs {
		if p.Types == pass.Pkg {
			pkg = p
		}
	}
	if pkg == nil {
		return nil
	}
	reported := make(map[token.Pos]bool)
	for _, n := range prog.nodes {
		if n.pkg != pkg {
			continue
		}
		root := false
		if n.lit != nil {
			root = true // standalone nodes exist only for annotated literals
		} else if n.decl != nil {
			_, root = pkg.Annot.For(n.decl.Pos(), TagSpecroot)
			root = root || docHasTag(n.decl.Doc, TagSpecroot)
		}
		if !root {
			continue
		}
		sum := prog.summaries[n]
		if sum == nil {
			continue
		}
		for _, e := range sum.effects {
			if e.scratch || reported[e.pos] {
				continue
			}
			reported[e.pos] = true
			pass.Reportf(e.pos,
				"speculation-impure: %s in %s, reachable from //det:specroot %s; move the state into a //det:scratch type or annotate the site //det:specwrite <why>",
				e.desc, e.origin, n.name)
		}
	}
	return nil
}
