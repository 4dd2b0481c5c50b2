package detlint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// MapRange flags `for … range` over map types. Map iteration order is
// deliberately randomized by the runtime, so any loop whose effect
// depends on visit order breaks per-seed bit-identity. A loop passes
// when the orderFree classifier proves the body order-insensitive by
// construction, or when it carries a justified //det:unordered.
var MapRange = &Analyzer{
	Name: "maprange",
	Doc: "flags range-over-map loops that are not provably order-insensitive; " +
		"iterate sorted keys, reduce purely, or justify with //det:unordered",
	Run: runMapRange,
}

func runMapRange(pass *Pass) error {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			defer func() { stack = append(stack, n) }()
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if _, ok := pass.Annot.For(rng.For, TagUnordered); ok {
				return true
			}
			if orderFree(pass, rng, stack) {
				return true
			}
			pass.Reportf(rng.For,
				"range over map %s is not provably order-insensitive: iterate sorted keys or annotate //det:unordered <reason>",
				types.ExprString(rng.X))
			return true
		})
	}
	return nil
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
// outlives a map-range loop. Float addition and multiplication do not
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
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			checkFloatFolds(pass, rng, seen)
			return true
		})
	}
	return nil
}

func checkFloatFolds(pass *Pass, rng *ast.RangeStmt, seen map[token.Pos]bool) {
	c := &classifier{pass: pass, locals: make(map[types.Object]bool)}
	c.collectLocals(rng)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		asn, ok := n.(*ast.AssignStmt)
		if !ok || len(asn.Lhs) != 1 || seen[asn.Pos()] {
			return true
		}
		lhs := asn.Lhs[0]
		if !isFloatExpr(pass, lhs) || c.isLocal(lhs) {
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

func isFloatExpr(pass *Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}
