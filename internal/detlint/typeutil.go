package detlint

import "go/types"

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
