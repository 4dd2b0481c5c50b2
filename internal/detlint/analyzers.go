package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags every read of a map in runtime iteration order. The
// runtime randomizes that order, so a loop whose effect depends on it
// breaks per-seed bit-identity, and proving a loop body order-insensitive
// costs more than writing it over sorted keys. The rule has two checks:
// a `for … range` over a map, and a maps.Keys, maps.Values or maps.All
// call that is not the direct first argument of slices.Sorted,
// slices.SortedFunc or slices.SortedStableFunc. Either passes only under
// a justified //det:unordered.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc: "flags range-over-map loops and maps.Keys/Values/All outside slices.Sorted*; " +
		"read slices.Sorted(maps.Keys(m)) or justify with //det:unordered",
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
				if !isMapExpr(pass, n.X) {
					return true
				}
				if _, ok := pass.Annot.For(n.For, TagUnordered); ok {
					return true
				}
				pass.Reportf(n.For,
					"range over map %s reads runtime iteration order: iterate slices.Sorted(maps.Keys(..)) or annotate //det:unordered <reason>",
					types.ExprString(n.X))
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
				if _, ok := pass.Annot.For(n.Pos(), TagUnordered); ok {
					return true
				}
				pass.Reportf(n.Pos(),
					"maps.%s yields runtime iteration order: wrap the call in slices.Sorted or annotate //det:unordered <reason>",
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
			if _, ok := pass.Annot.For(sel.Pos(), TagWallclock); ok {
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

// FloatRange flags floating-point accumulation into a variable that
// outlives a map-range loop: a range over a map or over maps.Keys,
// maps.Values or maps.All. Float addition and multiplication do not
// associate, so the fold result depends on iteration order — the exact
// shape of PR 1's nondeterminism bug. This fires even inside loops
// annotated //det:unordered (such a justification is wrong for a float
// fold by definition); the only escape is an explicit //det:floatfold.
var FloatRange = &Analyzer{
	Name: "floatrange",
	Doc: "flags float accumulation across map-range iterations, where " +
		"iteration order changes the fold result bit-for-bit",
	Run: runFloatRange,
}

func runFloatRange(pass *Pass) error {
	seen := make(map[token.Pos]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if isMapExpr(pass, rng.X) || isMapIterCall(pass, rng.X) {
				checkFloatFolds(pass, rng, seen)
			}
			return true
		})
	}
	return nil
}

// isMapIterCall reports whether e calls maps.Keys, maps.Values or
// maps.All.
func isMapIterCall(pass *Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := funcOf(pass, call.Fun)
	return fn != nil && isMapIter(fn)
}

func checkFloatFolds(pass *Pass, rng *ast.RangeStmt, seen map[token.Pos]bool) {
	locals := loopLocals(pass, rng)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asn, ok := n.(*ast.AssignStmt)
		if !ok || len(asn.Lhs) != 1 || seen[asn.Pos()] {
			return true
		}
		lhs := asn.Lhs[0]
		if !isFloatExpr(pass, lhs) || locals[rootObj(pass, lhs)] {
			return true
		}
		accumulates := false
		switch asn.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			accumulates = true
		case token.ASSIGN:
			// x = x + e spelled out.
			if bin, ok := asn.Rhs[0].(*ast.BinaryExpr); ok {
				switch bin.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
					l := types.ExprString(lhs)
					accumulates = types.ExprString(bin.X) == l || types.ExprString(bin.Y) == l
				}
			}
		}
		if !accumulates {
			return true
		}
		if _, ok := pass.Annot.For(asn.Pos(), TagFloatfold); ok {
			seen[asn.Pos()] = true
			return true
		}
		if _, ok := pass.Annot.For(rng.For, TagFloatfold); ok {
			seen[asn.Pos()] = true
			return true
		}
		seen[asn.Pos()] = true
		pass.Reportf(asn.Pos(),
			"floating-point fold into %s across map-range iterations: the sum depends on iteration order; iterate sorted keys or annotate //det:floatfold <reason>",
			types.ExprString(lhs))
		return true
	})
}

// loopLocals returns every object a range loop declares: its key and
// value variables and every definition in its body. They are
// per-iteration state, so a fold into one does not outlive the loop.
func loopLocals(pass *Pass, rng *ast.RangeStmt) map[types.Object]bool {
	locals := make(map[types.Object]bool)
	ast.Inspect(rng, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				locals[obj] = true
			}
		}
		return true
	})
	return locals
}

// rootObj returns the object at the base of an lvalue-ish expression
// chain (x, x.f, x[i], *x → x's object).
func rootObj(pass *Pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[x]; obj != nil {
				return obj
			}
			return pass.TypesInfo.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func isFloatExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
