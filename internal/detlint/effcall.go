package detlint

// Call resolution, provenance classification and call-site substitution
// for the effects engine (effects.go / effwalk.go).

import (
	"go/ast"
	"go/token"
	"go/types"
)

type callKind int

const (
	ckSkip callKind = iota // folded literal, callback through a func param
	ckConvert
	ckBuiltin
	ckStatic
	ckIface
	ckStdlib
	ckHavoc
)

type calleeSet struct {
	kind  callKind
	name  string // builtin name / method name
	nodes []*funcNode
	obj   *types.Func // stdlib model target
	recv  ast.Expr    // receiver expression for method calls
	desc  string      // havoc description
}

// resolve classifies one call expression. Calls through func-typed
// parameters are skipped (callback discipline: a literal's effects are
// folded where the literal is written), as are calls through locals
// bound to a literal in this function; other func-value calls are havoc.
func (w *walker) resolve(ce *ast.CallExpr) calleeSet {
	fun := unparen(ce.Fun)
	if tv, ok := w.info().Types[fun]; ok && tv.IsType() {
		return calleeSet{kind: ckConvert}
	}
	// Generic instantiation f[T](…): unwrap to the underlying ident.
	if ix, ok := fun.(*ast.IndexExpr); ok {
		if _, isSig := w.underlyingOf(fun).(*types.Signature); isSig {
			fun = unparen(ix.X)
		}
	}
	if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = unparen(ix.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		switch o := w.objOf(f).(type) {
		case *types.Builtin:
			return calleeSet{kind: ckBuiltin, name: o.Name()}
		case *types.Func:
			return w.funcTarget(o, nil)
		case *types.Var:
			if w.litBind[o] {
				return calleeSet{kind: ckSkip}
			}
			if pr := w.varClass(o); pr.kind == provParam {
				return calleeSet{kind: ckSkip}
			}
			return calleeSet{kind: ckHavoc,
				desc: "indirect call through func value " + f.Name}
		}
		return calleeSet{kind: ckHavoc, desc: "unresolved call"}
	case *ast.SelectorExpr:
		if sel := w.info().Selections[f]; sel != nil {
			switch sel.Kind() {
			case types.MethodVal:
				recvT := sel.Recv()
				if types.IsInterface(recvT) {
					return calleeSet{
						kind:  ckIface,
						name:  sel.Obj().Name(),
						nodes: w.prog.chaTargets(recvT, sel.Obj().Name()),
						recv:  f.X,
					}
				}
				if fobj, ok := sel.Obj().(*types.Func); ok {
					return w.funcTarget(fobj, f.X)
				}
			case types.FieldVal:
				return calleeSet{kind: ckHavoc,
					desc: "indirect call through func-typed field " + f.Sel.Name}
			case types.MethodExpr:
				return calleeSet{kind: ckHavoc,
					desc: "call through method expression " + f.Sel.Name}
			}
		}
		switch o := w.objOf(f.Sel).(type) {
		case *types.Func: // qualified pkg.Func
			return w.funcTarget(o, nil)
		case *types.Var:
			return calleeSet{kind: ckHavoc,
				desc: "indirect call through func-typed variable " + f.Sel.Name}
		}
		return calleeSet{kind: ckHavoc, desc: "unresolved selector call"}
	case *ast.FuncLit:
		return calleeSet{kind: ckSkip} // folded inline by the walk
	}
	return calleeSet{kind: ckHavoc, desc: "indirect call"}
}

func (w *walker) funcTarget(obj *types.Func, recv ast.Expr) calleeSet {
	if n := w.prog.byObj[obj]; n != nil {
		return calleeSet{kind: ckStatic, nodes: []*funcNode{n}, recv: recv, obj: obj}
	}
	if n := w.prog.byObj[obj.Origin()]; n != nil {
		return calleeSet{kind: ckStatic, nodes: []*funcNode{n}, recv: recv, obj: obj}
	}
	return calleeSet{kind: ckStdlib, obj: obj, recv: recv}
}

func (w *walker) call(ce *ast.CallExpr) {
	if w.skipCall[ce] {
		return
	}
	r := w.resolve(ce)
	switch r.kind {
	case ckSkip, ckConvert:
		return
	case ckBuiltin:
		w.builtinCall(ce, r.name)
		return
	}
	if !w.collect {
		return
	}
	switch r.kind {
	case ckHavoc:
		w.addRaw(effect{kind: provUnknown, pos: ce.Pos(), desc: r.desc})
	case ckStdlib:
		w.stdlibCall(ce, r)
	case ckStatic, ckIface:
		if r.kind == ckIface && len(r.nodes) == 0 {
			w.addRaw(effect{kind: provUnknown, pos: ce.Pos(),
				desc: "interface method " + r.name + " has no in-module implementation"})
			return
		}
		for _, callee := range r.nodes {
			w.substitute(ce, r, callee)
		}
	}
}

func (w *walker) builtinCall(ce *ast.CallExpr, name string) {
	if !w.collect || len(ce.Args) == 0 {
		return
	}
	switch name {
	case "append":
		w.refWrite(ce.Args[0], "append writes the backing array of")
	case "copy":
		w.refWrite(ce.Args[0], "copy into")
	case "delete":
		w.refWrite(ce.Args[0], "delete from")
	}
}

// stdlibCall models out-of-module functions: they may write through
// every pointer-like argument (and receiver) and return values of
// unknown provenance. sync.Pool Get/Put are modeled effect-free — the
// pool hands out private scratch by design (DESIGN.md §12 caveats).
func (w *walker) stdlibCall(ce *ast.CallExpr, r calleeSet) {
	full := r.obj.FullName()
	if full == "(*sync.Pool).Get" || full == "(*sync.Pool).Put" {
		return
	}
	// Atomic loads are pure reads of the cell; modeling their pointer
	// receiver as a potential write would poison every lock-free flag
	// read (g.pinned.Load()) on otherwise pure paths.
	if pkg := r.obj.Pkg(); pkg != nil && pkg.Path() == "sync/atomic" &&
		len(r.obj.Name()) >= 4 && r.obj.Name()[:4] == "Load" {
		return
	}
	short := r.obj.Name()
	if pkg := r.obj.Pkg(); pkg != nil {
		short = pkg.Name() + "." + r.obj.Name()
	}
	if r.recv != nil && pointerLike(w.typeOf(r.recv)) {
		w.refWrite(r.recv, "call to "+short+" may write through")
	}
	for _, a := range ce.Args {
		if pointerLike(w.typeOf(a)) {
			w.refWrite(a, "call to "+short+" may write through")
		}
	}
}

// substitute re-bases one callee summary onto this call site's argument
// provenance and merges it in.
func (w *walker) substitute(ce *ast.CallExpr, r calleeSet, callee *funcNode) {
	sum := w.prog.summaries[callee]
	if sum == nil {
		return // first fixpoint round; filled in on a later round
	}
	var sig *types.Signature
	if callee.obj != nil {
		sig = callee.obj.Type().(*types.Signature)
	}
	argFor := func(i int) (ast.Expr, bool) {
		if sig != nil && sig.Variadic() && i >= sig.Params().Len()-1 {
			// Expanded variadic args live in a fresh backing slice; only
			// an explicit s… forwards caller memory.
			if ce.Ellipsis.IsValid() && len(ce.Args) == sig.Params().Len() {
				return ce.Args[len(ce.Args)-1], true
			}
			return nil, false
		}
		if i < len(ce.Args) {
			return ce.Args[i], true
		}
		return nil, false
	}
	for _, e := range sum.effects {
		switch e.kind {
		case provGlobal, provUnknown, provCaptured:
			w.addSub(e)
		case provRecv:
			if r.recv == nil {
				w.addSub(e) // method expression oddity: keep conservative
				continue
			}
			w.rebase(e, r.recv)
		case provParam:
			if arg, ok := argFor(e.param); ok {
				w.rebase(e, arg)
			}
		}
	}
}

// rebase maps a callee recv/param effect onto the provenance of the
// caller-side expression it flowed through.
func (w *walker) rebase(e effect, arg ast.Expr) {
	base := w.provOf(arg)
	if !base.shared() {
		return // effect on fresh or constant memory is caller-invisible
	}
	e.kind = base.kind
	e.param = base.param
	e.capv = base.capv
	if w.pointeeOwnerScratch(arg) {
		e.scratch = true
	}
	w.addSub(e)
}

// addRaw records an effect originating in this function, honoring the
// //det:specwrite escape at the site or on the declaration.
func (w *walker) addRaw(e effect) {
	if w.annotFor(e.pos, TagSpecwrite) || w.declExcused(TagSpecwrite) {
		return
	}
	e.origin = w.fn.name
	w.addSub(e)
}

func (w *walker) addSub(e effect) {
	k := e.key()
	if w.seenEff[k] {
		return
	}
	w.seenEff[k] = true
	w.effects = append(w.effects, e)
}

// writeTo records the effect of writing the lvalue e.
func (w *walker) writeTo(e ast.Expr, verb string) {
	pr := w.locProv(e)
	if !pr.shared() {
		return
	}
	owner := w.ownerOf(e)
	w.addRaw(effect{
		kind:    pr.kind,
		param:   pr.param,
		capv:    pr.capv,
		scratch: owner != nil && w.prog.scratch[owner],
		pos:     e.Pos(),
		desc:    verb + " " + types.ExprString(e) + " (" + pr.String() + ")",
	})
}

// refWrite records a write through a reference value (channel send,
// copy/delete, stdlib pointer args, append backing arrays).
func (w *walker) refWrite(e ast.Expr, verb string) {
	pr := w.provOf(e)
	if !pr.shared() {
		return
	}
	w.addRaw(effect{
		kind:    pr.kind,
		param:   pr.param,
		capv:    pr.capv,
		scratch: w.pointeeOwnerScratch(e),
		pos:     e.Pos(),
		desc:    verb + " " + types.ExprString(e) + " (" + pr.String() + ")",
	})
}

// locProv is the provenance of a storage location: what the written
// memory is reachable from. Writing a local variable itself is always
// frame-private; writes escape only through pointers, slices and maps.
func (w *walker) locProv(e ast.Expr) prov {
	e = unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		v, ok := w.objOf(x).(*types.Var)
		if !ok || v.IsField() {
			return prov{kind: provNone}
		}
		if pkgScoped(v) {
			return prov{kind: provGlobal}
		}
		if !w.contains(v.Pos()) {
			return prov{kind: provCaptured, capv: v}
		}
		return prov{kind: provFresh} // local storage
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := w.objOf(id).(*types.PkgName); isPkg {
				return prov{kind: provGlobal}
			}
		}
		if sel := w.info().Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			if _, isPtr := w.underlyingOf(x.X).(*types.Pointer); isPtr {
				return w.provOf(x.X)
			}
			return w.locProv(x.X)
		}
		return prov{kind: provNone}
	case *ast.IndexExpr:
		switch w.underlyingOf(x.X).(type) {
		case *types.Slice, *types.Map, *types.Pointer:
			return w.provOf(x.X)
		case *types.Array:
			return w.locProv(x.X)
		}
		return prov{kind: provUnknown}
	case *ast.StarExpr:
		return w.provOf(x.X)
	case *ast.CompositeLit:
		return prov{kind: provFresh} // &T{…} points at a fresh allocation
	}
	return prov{kind: provUnknown}
}

// ownerOf is the named type that immediately contains the written field
// or element — the type whose //det:scratch annotation decides whether
// the write stays inside a private arena.
func (w *walker) ownerOf(e ast.Expr) *types.TypeName {
	e = unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if tn := namedOf(derefType(w.typeOf(x.X))); tn != nil {
			return tn
		}
		return w.ownerOf(x.X)
	case *ast.IndexExpr:
		if tn := namedOf(w.typeOf(x.X)); tn != nil {
			return tn
		}
		return w.ownerOf(x.X)
	case *ast.StarExpr:
		return namedOf(derefType(w.typeOf(x.X)))
	case *ast.SliceExpr:
		return w.ownerOf(x.X)
	}
	return nil
}

// provOf is the provenance of a value.
func (w *walker) provOf(e ast.Expr) prov {
	e = unparen(e)
	if tv, ok := w.info().Types[e]; ok && tv.Value != nil {
		return prov{kind: provNone} // constants
	}
	switch x := e.(type) {
	case *ast.Ident:
		switch o := w.objOf(x).(type) {
		case *types.Var:
			if o.IsField() {
				return prov{kind: provNone}
			}
			return w.varClass(o)
		}
		return prov{kind: provNone} // nil, funcs, types, consts
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if _, isPkg := w.objOf(id).(*types.PkgName); isPkg {
				if _, isVar := w.objOf(x.Sel).(*types.Var); isVar {
					return prov{kind: provGlobal}
				}
				return prov{kind: provNone}
			}
		}
		if sel := w.info().Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			return w.provOf(x.X)
		}
		return prov{kind: provNone} // method value
	case *ast.IndexExpr:
		if _, isSig := w.underlyingOf(x).(*types.Signature); isSig {
			return prov{kind: provNone} // generic instantiation
		}
		return w.provOf(x.X)
	case *ast.IndexListExpr:
		return prov{kind: provNone}
	case *ast.StarExpr:
		return w.provOf(x.X)
	case *ast.SliceExpr:
		return w.provOf(x.X)
	case *ast.TypeAssertExpr:
		return w.provOf(x.X)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.AND:
			return w.locProv(x.X)
		case token.ARROW:
			return prov{kind: provUnknown} // channel receive
		}
		return prov{kind: provNone}
	case *ast.CompositeLit, *ast.FuncLit, *ast.BasicLit:
		return prov{kind: provFresh}
	case *ast.BinaryExpr, *ast.KeyValueExpr:
		return prov{kind: provNone}
	case *ast.CallExpr:
		return w.callProv(x)
	}
	return prov{kind: provUnknown}
}

// callProv is the provenance of a call's result, substituted from the
// callee's return summary.
func (w *walker) callProv(ce *ast.CallExpr) prov {
	r := w.resolve(ce)
	switch r.kind {
	case ckConvert:
		if len(ce.Args) == 1 {
			return w.provOf(ce.Args[0])
		}
		return prov{kind: provNone}
	case ckBuiltin:
		switch r.name {
		case "append":
			if len(ce.Args) > 0 {
				return joinProv(prov{kind: provFresh}, w.provOf(ce.Args[0]))
			}
		case "make", "new", "min", "max":
			return prov{kind: provFresh}
		}
		return prov{kind: provNone}
	case ckStdlib:
		if r.obj.FullName() == "(*sync.Pool).Get" {
			return prov{kind: provFresh}
		}
		return prov{kind: provUnknown}
	case ckStatic, ckIface:
		out := prov{kind: provNone}
		for _, callee := range r.nodes {
			sum := w.prog.summaries[callee]
			if sum == nil {
				out = joinProv(out, prov{kind: provUnknown})
				continue
			}
			ret := sum.ret
			switch ret.kind {
			case provRecv:
				if r.recv != nil {
					ret = w.provOf(r.recv)
				} else {
					ret = prov{kind: provUnknown}
				}
			case provParam:
				if ret.param < len(ce.Args) {
					ret = w.provOf(ce.Args[ret.param])
				} else {
					ret = prov{kind: provUnknown}
				}
			case provCaptured:
				ret = prov{kind: provUnknown}
			}
			out = joinProv(out, ret)
		}
		if len(r.nodes) == 0 {
			return prov{kind: provUnknown}
		}
		return out
	}
	return prov{kind: provUnknown}
}

// pointeeOwnerScratch reports whether the memory an argument hands to a
// callee is part of a //det:scratch arena: &x.f is scratch when x's type
// is, a *T value when T is, and a slice/map field — or a slice of an array
// field, which lives inside the holder — when the holding type is. A plain
// pointer field of a scratch type is a back-reference to shared state and
// stays non-scratch.
func (w *walker) pointeeOwnerScratch(e ast.Expr) bool {
	e = unparen(e)
	if sl, ok := e.(*ast.SliceExpr); ok {
		if sel, ok := unparen(sl.X).(*ast.SelectorExpr); ok {
			if t := w.typeOf(sel); t != nil {
				if _, isArray := t.Underlying().(*types.Array); isArray {
					return w.namedScratch(derefType(w.typeOf(sel.X))) // x.arr[:n] is x's own memory
				}
			}
		}
		return w.pointeeOwnerScratch(sl.X) // buf[:0] reslices buf's arena
	}
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		if w.namedScratch(w.typeOf(u.X)) {
			return true
		}
		if tn := w.ownerOf(u.X); tn != nil && w.prog.scratch[tn] {
			return true
		}
		return false
	}
	t := w.typeOf(e)
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer:
		return w.namedScratch(derefType(t))
	case *types.Slice, *types.Map:
		if w.namedScratch(t) {
			return true
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			return w.namedScratch(derefType(w.typeOf(sel.X)))
		}
	}
	return false
}

func (w *walker) namedScratch(t types.Type) bool {
	tn := namedOf(t)
	return tn != nil && w.prog.scratch[tn]
}
