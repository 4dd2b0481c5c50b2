package detlint

// testonly keeps test-only API out of the production build (DESIGN.md
// §11): an exported identifier declared under <module>/internal/ needs a
// reference from a non-test file of the module — the loader never parses
// _test.go files, so every reference the Program holds is a production
// one. Two kinds of method are reachable without being named and stay
// exempt: methods of a type a non-internal package names through a type
// alias (the public facade re-exports them), and methods that implement
// an interface the module's code uses. Anything else that must stay
// carries //det:api <why>.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// TestOnly reports exported internal identifiers no production file
// references.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "exported internal/ identifiers need a non-test reference, a facade alias or //det:api",
	Run:  runTestOnly,
}

// apiIndex is the whole-module view testonly checks against, built once
// per Program.
type apiIndex struct {
	internal string                // "<module>/internal/"; "" when the Program is not the whole module
	used     map[types.Object]bool // every object a production file names
	aliased  map[*types.Func]bool  // methods reachable through a facade alias
	ifaces   []*types.Interface    // interfaces production values flow through
}

func runTestOnly(pass *Pass) error {
	idx := pass.Prog.apiIndex()
	if idx.internal == "" || !strings.HasPrefix(pass.Pkg.Path()+"/", idx.internal) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkAPI(pass, idx, d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						checkAPI(pass, idx, s.Name)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							checkAPI(pass, idx, name)
						}
					}
				}
			}
		}
	}
	return nil
}

func checkAPI(pass *Pass, idx *apiIndex, name *ast.Ident) {
	obj := pass.TypesInfo.Defs[name]
	if obj == nil || !obj.Exported() || idx.used[obj] {
		return
	}
	if fn, ok := obj.(*types.Func); ok && (idx.aliased[fn] || idx.implements(fn)) {
		return
	}
	if pass.Annot.Has(name.Pos(), TagAPI) {
		return
	}
	pass.Reportf(name.Pos(),
		"exported %s has no reference outside tests; delete it, move it into a _test.go file, or annotate it //det:api <why>",
		name.Name)
}

// implements reports whether fn is a method that satisfies a method of
// an interface production code uses, for its receiver type or a pointer
// to it.
func (idx *apiIndex) implements(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := namedOf(derefType(recv.Type()))
	if named == nil {
		return false
	}
	for _, iface := range idx.ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(named.Type(), iface) || types.Implements(types.NewPointer(named.Type()), iface) {
				return true
			}
		}
	}
	return false
}

// apiIndex builds (once) the reference, alias and interface sets over
// every package of the Program. It stays empty unless the Program holds
// every package of one module: a partial view would report as unused
// whatever only the unloaded packages reference.
func (p *Program) apiIndex() *apiIndex {
	if p.api != nil {
		return p.api
	}
	p.api = &apiIndex{}
	if len(p.Pkgs) == 0 || p.Pkgs[0].loader == nil {
		return p.api
	}
	l := p.Pkgs[0].loader
	dirs, err := l.walkDirs(l.ModDir)
	if err != nil {
		return p.api
	}
	loaded := make(map[string]bool, len(p.Pkgs))
	for _, pkg := range p.Pkgs {
		loaded[pkg.Path] = true
	}
	for _, d := range dirs {
		if !loaded[l.dirImportPath(d)] {
			return p.api
		}
	}

	idx := &apiIndex{
		internal: l.ModPath + "/internal/",
		used:     make(map[types.Object]bool),
		aliased:  make(map[*types.Func]bool),
	}
	seen := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seen[it] {
			seen[it] = true
			idx.ifaces = append(idx.ifaces, it)
		}
	}
	// fmt consults Stringer and error on values passed as `any`, where no
	// static type names either interface.
	str := types.NewVar(token.NoPos, nil, "", types.Typ[types.String])
	addIface(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "String",
		types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(str), false))}, nil).Complete())
	addIface(types.Universe.Lookup("error").Type())
	for _, pkg := range p.Pkgs {
		// One walk of the files in source order looks every expression up
		// in Types and every identifier in Uses, so ifaces is built in the
		// same order on every run.
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				e, ok := n.(ast.Expr)
				if !ok {
					return true
				}
				if tv, ok := pkg.Info.Types[e]; ok {
					addIface(tv.Type)
				}
				id, ok := e.(*ast.Ident)
				if !ok {
					return true
				}
				obj := pkg.Info.Uses[id]
				if obj == nil {
					return true
				}
				idx.used[obj] = true
				switch o := obj.(type) {
				case *types.Var:
					addIface(o.Type())
				case *types.Func:
					idx.used[o.Origin()] = true // a method of an instantiated generic type
					sig := o.Type().(*types.Signature)
					for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
						for i := 0; i < tup.Len(); i++ {
							addIface(tup.At(i).Type())
						}
					}
				}
				return true
			})
		}
		if strings.HasPrefix(pkg.Path+"/", idx.internal) {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() {
				continue
			}
			t := types.Unalias(tn.Type())
			for _, mt := range []types.Type{t, types.NewPointer(t)} {
				ms := types.NewMethodSet(mt)
				for i := 0; i < ms.Len(); i++ {
					idx.aliased[ms.At(i).Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}
	p.api = idx
	return idx
}
