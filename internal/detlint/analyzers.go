package detlint

import (
	"go/ast"
	"go/types"
)

// MapRange flags every read of a map in runtime iteration order. The
// runtime randomizes that order, so a loop whose effect depends on it
// breaks per-seed bit-identity, and proving a loop body order-insensitive
// costs more than writing it over sorted keys. The rule has two checks:
// a `for … range` over a map, and a maps.Keys, maps.Values or maps.All
// call that is not the direct first argument of slices.Sorted,
// slices.SortedFunc or slices.SortedStableFunc. There is no annotation
// escape: a map is never read in runtime order.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc: "flags range-over-map loops and maps.Keys/Values/All outside slices.Sorted*; " +
		"read slices.Sorted(maps.Keys(m)) (no annotation escape)",
	Run: runMapRange,
}

func runMapRange(pass *Pass) error {
	for _, f := range pass.Files {
		// sorted holds the callee identifiers of the iterator calls that
		// are the direct first argument of a slices.Sorted* call; Inspect
		// visits that call before its arguments.
		sorted := make(map[*ast.Ident]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if isMapExpr(pass, n.X) {
					pass.Reportf(n.For,
						"range over map %s reads runtime iteration order: iterate slices.Sorted(maps.Keys(..))",
						types.ExprString(n.X))
				}
			case *ast.CallExpr:
				if fn := funcOf(pass, n.Fun); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "slices" && sortedSeqs[fn.Name()] && len(n.Args) > 0 {
					if arg, ok := n.Args[0].(*ast.CallExpr); ok {
						if id := calleeIdent(arg.Fun); id != nil {
							sorted[id] = true
						}
					}
				}
			case *ast.Ident:
				fn, ok := pass.TypesInfo.Uses[n].(*types.Func)
				if !ok || !isMapIter(fn) || sorted[n] {
					return true
				}
				pass.Reportf(n.Pos(),
					"maps.%s yields runtime iteration order: wrap the call in slices.Sorted",
					fn.Name())
			}
			return true
		})
	}
	return nil
}

// sortedSeqs are the slices functions that collect an iterator into a
// sorted slice. SortedFunc and SortedStableFunc trust their comparator to
// order the elements totally, a review obligation (DESIGN.md §11).
var sortedSeqs = map[string]bool{"Sorted": true, "SortedFunc": true, "SortedStableFunc": true}

// isMapIter reports whether fn is one of the maps package's iterators.
func isMapIter(fn *types.Func) bool {
	if fn.Pkg() == nil || fn.Pkg().Path() != "maps" {
		return false
	}
	switch fn.Name() {
	case "Keys", "Values", "All":
		return true
	}
	return false
}

// isMapExpr reports whether e has map type.
func isMapExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// calleeIdent returns the identifier that names a call's function:
// f, pkg.f, or either with explicit type arguments.
func calleeIdent(fun ast.Expr) *ast.Ident {
	switch f := fun.(type) {
	case *ast.IndexExpr:
		return calleeIdent(f.X)
	case *ast.IndexListExpr:
		return calleeIdent(f.X)
	case *ast.SelectorExpr:
		return f.Sel
	case *ast.Ident:
		return f
	}
	return nil
}

// funcOf returns the function a call's Fun names, or nil.
func funcOf(pass *Pass, fun ast.Expr) *types.Func {
	id := calleeIdent(fun)
	if id == nil {
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// wallFuncs are the package-level time functions that read or depend on
// the wall clock / OS timer. Pure value constructors and arithmetic
// (time.Duration, time.Unix, d.Seconds()) stay legal.
var wallFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// WallTime forbids wall-clock reads in deterministic packages. The
// simulation has exactly one clock — platform.Platform's — and a time.Now
// anywhere under it makes output depend on host speed. Exemptions:
// package main (cmd/ and examples/ report real elapsed time to humans)
// and //det:wallclock sites, the platform's measured-time plumbing.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc: "forbids time.Now/Since/Sleep and friends outside package main; " +
		"measured-time plumbing must justify itself with //det:wallclock",
	Run: runWallTime,
}

func runWallTime(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "time" || !wallFuncs[obj.Name()] {
				return true
			}
			if fn, ok := obj.(*types.Func); !ok || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			if pass.Annot.Has(sel.Pos(), TagWallclock) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"wall-clock dependence: time.%s is forbidden in deterministic packages; use the simulation clock or annotate //det:wallclock <reason>",
				obj.Name())
			return true
		})
	}
	return nil
}

// randConstructors are the math/rand(/v2) package-level functions that
// build explicitly-seeded generators — the one blessed idiom: every
// random stream must be a rand.New(rand.NewSource(seed)) instance
// threaded from a Params/Config seed.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, // math/rand
	"NewPCG": true, "NewChaCha8": true, "NewZipf": true, // math/rand/v2
}

// GlobalRand forbids the package-level math/rand functions (Intn,
// Float64, Shuffle, Perm, Seed, …), which draw from a shared global
// source: any goroutine interleaving or added call site silently shifts
// every stream after it. There is no annotation escape — the seeded
// instance idiom is always available.
var GlobalRand = &Analyzer{
	Name: "globalrand",
	Doc: "forbids package-level math/rand functions; thread a " +
		"rand.New(rand.NewSource(seed)) instance from a Params/Config seed",
	Run: runGlobalRand,
}

func runGlobalRand(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil {
				return true
			}
			if p := obj.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok || fn.Type().(*types.Signature).Recv() != nil || randConstructors[fn.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"global randomness: rand.%s draws from the shared source; thread a rand.New(rand.NewSource(seed)) instance instead",
				fn.Name())
			return true
		})
	}
	return nil
}
