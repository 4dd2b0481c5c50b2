package detlint

import (
	"go/ast"
	"go/types"
)

// namedOf returns the type name of a (possibly aliased) named type, or nil.
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

func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// pkgScoped reports whether v is a package-level variable.
func pkgScoped(v *types.Var) bool {
	sc := v.Parent()
	return sc != nil && sc.Parent() == types.Universe
}
