package detlint

// The intraprocedural half of the effects engine (effects.go): one
// walker analyzes one funcNode, computing local provenance to a small
// fixpoint and then collecting write effects, with callee summaries
// substituted at call sites.

import (
	"go/ast"
	"go/token"
	"go/types"
)

type walker struct {
	prog *Program
	fn   *funcNode

	env        map[*types.Var]prov
	litBind    map[*types.Var]bool // locals bound to a func literal
	envChanged bool
	collect    bool

	skipLit  map[*ast.FuncLit]bool  // go-launched literal bodies
	skipCall map[*ast.CallExpr]bool // go-launched calls

	seenEff map[string]bool
	effects []effect
	ret     prov
}

func (p *Program) analyzeNode(n *funcNode) *summary {
	w := &walker{
		prog:     p,
		fn:       n,
		env:      make(map[*types.Var]prov),
		litBind:  make(map[*types.Var]bool),
		skipLit:  make(map[*ast.FuncLit]bool),
		skipCall: make(map[*ast.CallExpr]bool),
		seenEff:  make(map[string]bool),
	}
	if n.recv != nil {
		w.env[n.recv] = prov{kind: provRecv}
	}
	for i, pv := range n.params {
		if n.obj != nil {
			w.env[pv] = prov{kind: provParam, param: i}
		} else if pointerLike(pv.Type()) {
			// Standalone-literal parameters have no caller-side story;
			// writes through pointer-like ones degrade to havoc.
			w.env[pv] = prov{kind: provUnknown}
		} else {
			w.env[pv] = prov{kind: provFresh}
		}
	}
	for range [8]struct{}{} {
		w.envChanged = false
		w.walk()
		if !w.envChanged {
			break
		}
	}
	w.collect = true
	w.walk()
	return &summary{effects: w.effects, ret: w.ret}
}

func (w *walker) info() *types.Info { return w.fn.pkg.Info }

func (w *walker) typeOf(e ast.Expr) types.Type {
	if tv, ok := w.info().Types[e]; ok {
		return tv.Type
	}
	return nil
}

func (w *walker) objOf(id *ast.Ident) types.Object {
	if o := w.info().Uses[id]; o != nil {
		return o
	}
	return w.info().Defs[id]
}

func (w *walker) contains(pos token.Pos) bool {
	return pos >= w.fn.lo && pos < w.fn.hi
}

func (w *walker) annotFor(pos token.Pos, tag string) bool {
	_, ok := w.fn.pkg.Annot.For(pos, tag)
	return ok
}

// declExcused reports whether the containing declaration carries the
// given escape tag, excusing every site inside the function. The whole
// doc comment group is scanned so the tag need not be the comment's last
// line.
func (w *walker) declExcused(tag string) bool {
	if w.fn.decl == nil {
		return false
	}
	return w.annotFor(w.fn.decl.Pos(), tag) || docHasTag(w.fn.decl.Doc, tag)
}

// docHasTag reports whether a doc comment group carries the given
// //det: tag on any of its lines.
func docHasTag(doc *ast.CommentGroup, tag string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if ann, ok := ParseAnnotation(c.Text); ok && ann.Tag == tag {
			return true
		}
	}
	return false
}

func (w *walker) walk() {
	ast.Inspect(w.fn.body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.GoStmt:
			// The goroutine body runs concurrently: havoc for effects.
			// Arguments still evaluate in this frame and are visited as
			// children.
			if lit, ok := unparen(x.Call.Fun).(*ast.FuncLit); ok {
				w.skipLit[lit] = true
			}
			w.skipCall[x.Call] = true
			if w.collect {
				w.addRaw(effect{kind: provUnknown, pos: x.Pos(),
					desc: "launches a goroutine (concurrent effects are not analyzed)"})
			}
		case *ast.FuncLit:
			// Folded inline: captured locals resolve against this env.
			if w.skipLit[x] {
				return false
			}
		case *ast.AssignStmt:
			w.assign(x)
		case *ast.IncDecStmt:
			if w.collect {
				w.writeTo(x.X, "update of")
			}
		case *ast.SendStmt:
			if w.collect {
				w.refWrite(x.Chan, "channel send to")
			}
		case *ast.DeclStmt:
			w.declStmt(x)
		case *ast.RangeStmt:
			w.rangeVars(x)
		case *ast.TypeSwitchStmt:
			w.typeSwitchVar(x)
		case *ast.CallExpr:
			w.call(x)
		case *ast.ReturnStmt:
			if w.collect {
				w.returnStmt(x)
			}
		}
		return true
	})
}

func (w *walker) underlyingOf(e ast.Expr) types.Type {
	t := w.typeOf(e)
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func (w *walker) returnStmt(x *ast.ReturnStmt) {
	if len(x.Results) == 0 {
		for _, rv := range w.fn.results {
			w.ret = joinProv(w.ret, w.varClass(rv))
		}
		return
	}
	for _, r := range x.Results {
		w.ret = joinProv(w.ret, w.provOf(r))
	}
}

// varClass is the provenance of the value a variable currently holds.
func (w *walker) varClass(v *types.Var) prov {
	if pr, ok := w.env[v]; ok {
		return pr
	}
	if v.IsField() {
		return prov{kind: provNone}
	}
	if pkgScoped(v) {
		return prov{kind: provGlobal}
	}
	if !w.contains(v.Pos()) {
		return prov{kind: provCaptured, capv: v}
	}
	return prov{kind: provFresh}
}

func (w *walker) updateEnv(v *types.Var, pr prov) {
	old, ok := w.env[v]
	nw := joinProv(old, pr)
	if !ok || nw != old {
		w.env[v] = nw
		w.envChanged = true
	}
}

func (w *walker) assign(x *ast.AssignStmt) {
	var rhs []prov
	switch {
	case len(x.Rhs) == 1 && len(x.Lhs) > 1:
		pr := w.provOf(x.Rhs[0])
		for range x.Lhs {
			rhs = append(rhs, pr)
		}
	case len(x.Rhs) == len(x.Lhs):
		for _, r := range x.Rhs {
			rhs = append(rhs, w.provOf(r))
		}
	}
	for i, lhs := range x.Lhs {
		lhs = unparen(lhs)
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			v, ok := w.objOf(id).(*types.Var)
			if !ok {
				continue
			}
			local := !pkgScoped(v) && w.contains(v.Pos())
			if local {
				if i < len(rhs) {
					w.updateEnv(v, rhs[i])
				}
				if i < len(x.Rhs) {
					if _, isLit := unparen(x.Rhs[i]).(*ast.FuncLit); isLit {
						w.litBind[v] = true
					}
				}
				continue // writing local storage is frame-private
			}
			if w.collect {
				if pkgScoped(v) {
					w.addRaw(effect{kind: provGlobal, pos: id.Pos(),
						desc: "assignment to package variable " + v.Name()})
				} else {
					w.addRaw(effect{kind: provCaptured, capv: v, pos: id.Pos(),
						desc: "assignment to captured variable " + v.Name()})
				}
			}
			continue
		}
		if w.collect {
			w.writeTo(lhs, "assignment to")
		}
	}
}

func (w *walker) declStmt(x *ast.DeclStmt) {
	gd, ok := x.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, name := range vs.Names {
			v, ok := w.info().Defs[name].(*types.Var)
			if !ok {
				continue
			}
			pr := prov{kind: provFresh}
			if len(vs.Values) == len(vs.Names) {
				pr = w.provOf(vs.Values[i])
				if _, isLit := unparen(vs.Values[i]).(*ast.FuncLit); isLit {
					w.litBind[v] = true
				}
			} else if len(vs.Values) == 1 {
				pr = w.provOf(vs.Values[0])
			}
			w.updateEnv(v, pr)
		}
	}
}

func (w *walker) rangeVars(x *ast.RangeStmt) {
	set := func(e ast.Expr, pr prov) {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if v, ok := w.objOf(id).(*types.Var); ok && !pkgScoped(v) && w.contains(v.Pos()) {
			w.updateEnv(v, pr)
		}
	}
	if x.Key != nil {
		set(x.Key, prov{kind: provFresh})
	}
	if x.Value != nil {
		pr := prov{kind: provFresh}
		if pointerLike(w.typeOf(x.Value)) {
			pr = w.provOf(x.X)
		}
		set(x.Value, pr)
	}
}

func (w *walker) typeSwitchVar(x *ast.TypeSwitchStmt) {
	as, ok := x.Assign.(*ast.AssignStmt)
	if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	pr := prov{kind: provUnknown}
	if ta, ok := unparen(as.Rhs[0]).(*ast.TypeAssertExpr); ok {
		pr = w.provOf(ta.X)
	}
	// The per-case variables are distinct implicit objects, one per
	// case clause (Info.Implicits).
	ast.Inspect(x.Body, func(nd ast.Node) bool {
		cc, ok := nd.(*ast.CaseClause)
		if !ok {
			return true
		}
		if v, ok := w.info().Implicits[cc].(*types.Var); ok {
			w.updateEnv(v, pr)
		}
		return false
	})
	if v, ok := w.info().Defs[id].(*types.Var); ok && v != nil {
		w.updateEnv(v, pr)
	}
}
