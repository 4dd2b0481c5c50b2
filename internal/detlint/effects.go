package detlint

// The interprocedural layer behind specpure (DESIGN.md §12): a CHA-style
// call graph over the typed AST, per-function write-effect summaries, and a
// fixpoint that propagates effects across calls. Built on the standard
// library alone, same constraint as the rest of the suite.
//
// The effect lattice per function is a set of write effects, each
// classified by what the written memory is reachable from:
//
//	global    — a package-level variable
//	recv      — the method receiver
//	param(i)  — the i-th parameter
//	captured  — a variable captured from an enclosing function
//	unknown   — havoc: an effect the analysis cannot bound (indirect
//	            calls, goroutine launches, writes of unknown provenance)
//
// Each effect carries a scratch bit: true when the owner type of the
// written location is declared //det:scratch. At call sites, callee
// recv/param effects are re-based onto the caller's argument provenance;
// effects through fresh or nil arguments drop. Interface method calls
// resolve by CHA to every in-module implementation; zero implementations
// (or a call through a func-typed field/value) degrade to havoc.
// Function literals are folded into their enclosing function — captured
// locals resolve against the enclosing environment — except literals
// launched by `go`, which havoc, and literals annotated //det:specroot,
// which additionally become standalone roots whose captured variables
// count as shared state.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// A Program is the whole-module view behind specpure and testonly: call
// graph nodes, //det:scratch types, CHA indexes and the solved
// per-function summaries. Build one per lint run with NewProgram and share
// it across packages via RunWith.
type Program struct {
	Pkgs []*Package

	fset      *token.FileSet
	nodes     []*funcNode
	byObj     map[*types.Func]*funcNode
	litNodes  map[*ast.FuncLit]*funcNode
	scratch   map[*types.TypeName]bool
	named     []*types.TypeName
	summaries map[*funcNode]*summary
	chaCache  map[string][]*funcNode
	api       *apiIndex // testonly's reference sets, built on first use
}

// A funcNode is one call-graph node: a declared function/method, or a
// //det:specroot function literal analyzed standalone.
type funcNode struct {
	pkg     *Package
	obj     *types.Func // nil for a standalone literal
	decl    *ast.FuncDecl
	lit     *ast.FuncLit
	body    *ast.BlockStmt
	name    string
	lo, hi  token.Pos
	recv    *types.Var
	params  []*types.Var
	results []*types.Var
}

type provKind int

const (
	provNone provKind = iota
	provFresh
	provRecv
	provParam
	provGlobal
	provCaptured
	provUnknown
)

// prov is the provenance of a value or storage location: which root the
// memory it refers to is reachable from.
type prov struct {
	kind  provKind
	param int        // valid when kind == provParam
	capv  *types.Var // valid when kind == provCaptured
}

func (p prov) shared() bool {
	switch p.kind {
	case provNone, provFresh:
		return false
	}
	return true
}

func (p prov) String() string {
	switch p.kind {
	case provNone:
		return "none"
	case provFresh:
		return "fresh"
	case provRecv:
		return "receiver state"
	case provParam:
		return fmt.Sprintf("memory reachable from parameter %d", p.param)
	case provGlobal:
		return "package-global state"
	case provCaptured:
		name := "?"
		if p.capv != nil {
			name = p.capv.Name()
		}
		return "captured variable " + name
	}
	return "unknown provenance"
}

// joinProv is the lattice join: none is bottom, fresh stays below every
// shared class, and two distinct shared classes collapse to unknown.
func joinProv(a, b prov) prov {
	if a == b {
		return a
	}
	if a.kind == provNone {
		return b
	}
	if b.kind == provNone {
		return a
	}
	if a.kind == provFresh {
		return b
	}
	if b.kind == provFresh {
		return a
	}
	return prov{kind: provUnknown}
}

// An effect is one write a function (or anything it calls) may perform,
// classified against the caller-visible roots.
type effect struct {
	kind    provKind
	param   int
	capv    *types.Var
	scratch bool
	pos     token.Pos
	desc    string
	origin  string // name of the function containing the write site
}

func (e effect) key() string {
	return fmt.Sprintf("%d/%d/%t/%d", e.kind, e.param, e.scratch, e.pos)
}

// summary is the solved per-function fact: outward write effects and
// return-value provenance.
type summary struct {
	effects []effect
	ret     prov
}

func (s *summary) fingerprint() string {
	var b strings.Builder
	for _, e := range s.effects {
		b.WriteString(e.key())
		b.WriteByte(';')
	}
	fmt.Fprintf(&b, "|%d/%d", s.ret.kind, s.ret.param)
	return b.String()
}

// NewProgram builds the call graph and scratch-type index over pkgs and
// solves the effect summaries to a fixpoint. The packages must share one
// FileSet (the Loader guarantees this; the golden harness passes one
// package).
func NewProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:      pkgs,
		byObj:     make(map[*types.Func]*funcNode),
		litNodes:  make(map[*ast.FuncLit]*funcNode),
		scratch:   make(map[*types.TypeName]bool),
		summaries: make(map[*funcNode]*summary),
		chaCache:  make(map[string][]*funcNode),
	}
	if len(pkgs) > 0 {
		p.fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		p.indexPackage(pkg)
	}
	p.solve()
	return p
}

func (p *Program) indexPackage(pkg *Package) {
	// Scratch types: a //det:scratch annotation on (or above) a type
	// spec marks the named type as per-speculation scratch.
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				_, onSpec := pkg.Annot.For(ts.Pos(), TagScratch)
				_, onDecl := pkg.Annot.For(gd.Pos(), TagScratch)
				if !onSpec && !onDecl {
					continue
				}
				if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
					p.scratch[tn] = true
				}
			}
		}
	}
	// Named non-interface types, for CHA. Scope.Names is sorted, so the
	// CHA target order (and therefore diagnostic order) is deterministic.
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			if _, isIface := named.Underlying().(*types.Interface); !isIface {
				p.named = append(p.named, tn)
			}
		}
	}
	// Call-graph nodes: every declared function with a body, plus every
	// //det:specroot function literal (analyzed standalone so captured
	// variables count as shared state).
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			n := &funcNode{
				pkg:  pkg,
				obj:  obj,
				decl: fd,
				body: fd.Body,
				name: declDisplayName(pkg, fd),
				lo:   fd.Pos(),
				hi:   fd.End(),
			}
			sig := obj.Type().(*types.Signature)
			n.recv = sig.Recv()
			for i := 0; i < sig.Params().Len(); i++ {
				n.params = append(n.params, sig.Params().At(i))
			}
			for i := 0; i < sig.Results().Len(); i++ {
				n.results = append(n.results, sig.Results().At(i))
			}
			p.nodes = append(p.nodes, n)
			p.byObj[obj] = n
		}
		ast.Inspect(f, func(nd ast.Node) bool {
			lit, ok := nd.(*ast.FuncLit)
			if !ok {
				return true
			}
			if _, ok := pkg.Annot.For(lit.Pos(), TagSpecroot); !ok {
				return true
			}
			pos := pkg.Fset.Position(lit.Pos())
			n := &funcNode{
				pkg:  pkg,
				lit:  lit,
				body: lit.Body,
				name: fmt.Sprintf("%s.(func literal at line %d)", pkg.Types.Name(), pos.Line),
				lo:   lit.Pos(),
				hi:   lit.End(),
			}
			if sig, ok := pkg.Info.Types[lit].Type.(*types.Signature); ok {
				for i := 0; i < sig.Params().Len(); i++ {
					n.params = append(n.params, sig.Params().At(i))
				}
				for i := 0; i < sig.Results().Len(); i++ {
					n.results = append(n.results, sig.Results().At(i))
				}
			}
			p.nodes = append(p.nodes, n)
			p.litNodes[lit] = n
			return true
		})
	}
}

func declDisplayName(pkg *Package, fd *ast.FuncDecl) string {
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		t := fd.Recv.List[0].Type
		if se, ok := t.(*ast.StarExpr); ok {
			t = se.X
		}
		if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
			t = ix.X
		}
		if id, ok := t.(*ast.Ident); ok {
			return pkg.Types.Name() + ".(" + id.Name + ")." + fd.Name.Name
		}
	}
	return pkg.Types.Name() + "." + fd.Name.Name
}

// solve runs chaotic iteration to the fixpoint: effect sets only grow and
// positions are finite, so this terminates; the round cap is a backstop,
// not a tuning knob.
func (p *Program) solve() {
	for round := 0; round < 50; round++ {
		changed := false
		for _, n := range p.nodes {
			s := p.analyzeNode(n)
			old := p.summaries[n]
			if old == nil || old.fingerprint() != s.fingerprint() {
				p.summaries[n] = s
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// chaTargets resolves an interface method call to every in-module
// concrete implementation (Class Hierarchy Analysis). The open-world
// caveat — implementations outside the analyzed packages — is documented
// in DESIGN.md §12.
func (p *Program) chaTargets(iface types.Type, method string) []*funcNode {
	key := iface.String() + "." + method
	if out, ok := p.chaCache[key]; ok {
		return out
	}
	ifc, ok := iface.Underlying().(*types.Interface)
	if !ok {
		p.chaCache[key] = nil
		return nil
	}
	out := []*funcNode{}
	for _, tn := range p.named {
		T := tn.Type()
		PT := types.NewPointer(T)
		if !types.Implements(T, ifc) && !types.Implements(PT, ifc) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(PT, true, tn.Pkg(), method)
		fobj, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n := p.byObj[fobj]; n != nil {
			out = append(out, n)
		} else if n := p.byObj[fobj.Origin()]; n != nil {
			out = append(out, n)
		}
	}
	p.chaCache[key] = out
	return out
}

func namedOf(t types.Type) *types.TypeName {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

func derefType(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		return ptr.Elem()
	}
	return t
}

// pointerLike reports whether values of t carry a reference through
// which a callee could write caller-visible memory.
func pointerLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan:
		return true
	}
	return false
}

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

func pkgScoped(v *types.Var) bool {
	sc := v.Parent()
	return sc != nil && sc.Parent() == types.Universe
}
