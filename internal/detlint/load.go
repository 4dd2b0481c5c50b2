package detlint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	Annot *Annotations

	loader *Loader // nil for a package checked outside a Loader
}

// A Loader parses and type-checks packages of a single module from
// source. The offline build container has no golang.org/x/tools, so this
// plays the role of go/packages: module-internal import paths resolve to
// directories under the module root, and everything else (the standard
// library) goes through the compiler's source importer, which reads
// GOROOT/src and needs no network, build cache, or export data.
type Loader struct {
	ModPath string
	ModDir  string

	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package // module packages by import path
	loading map[string]bool     // import-cycle guard
}

// NewLoader returns a loader for the module rooted at modDir, reading the
// module path from go.mod.
func NewLoader(modDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(modDir, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("no module line in %s/go.mod", modDir)
	}
	fset := token.NewFileSet()
	return &Loader{
		ModPath: modPath,
		ModDir:  modDir,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}, nil
}

// Load resolves the given patterns ("./...", "./cmd/detlint", or full
// import paths within the module) and returns the matched packages,
// type-checked, in import-path order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var paths []string
	seen := make(map[string]bool)
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			paths = append(paths, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == l.ModPath+"/...":
			dirs, err := l.walkDirs(l.ModDir)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				add(l.dirImportPath(d))
			}
		case strings.HasSuffix(pat, "/..."):
			root := strings.TrimSuffix(pat, "/...")
			dirs, err := l.walkDirs(filepath.Join(l.ModDir, filepath.FromSlash(strings.TrimPrefix(root, "./"))))
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				add(l.dirImportPath(d))
			}
		case strings.HasPrefix(pat, "./"):
			add(l.dirImportPath(filepath.Join(l.ModDir, filepath.FromSlash(pat[2:]))))
		case pat == ".":
			add(l.ModPath)
		default:
			add(pat)
		}
	}
	sort.Strings(paths)
	out := make([]*Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := l.loadPackage(p)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// walkDirs returns every directory under root containing at least one
// non-test .go file, skipping testdata, hidden, and VCS directories.
func (l *Loader) walkDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if files, err := goFilesIn(path); err == nil && len(files) > 0 {
				dirs = append(dirs, path)
			}
			return nil
		}
		return nil
	})
	return dirs, err
}

func (l *Loader) dirImportPath(dir string) string {
	rel, err := filepath.Rel(l.ModDir, dir)
	if err != nil || rel == "." {
		return l.ModPath
	}
	return l.ModPath + "/" + filepath.ToSlash(rel)
}

func goFilesIn(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files, nil
}

// loadPackage parses and type-checks one module package (memoized).
func (l *Loader) loadPackage(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.ModDir
	if path != l.ModPath {
		rel, ok := strings.CutPrefix(path, l.ModPath+"/")
		if !ok {
			return nil, fmt.Errorf("%s is outside module %s", path, l.ModPath)
		}
		dir = filepath.Join(l.ModDir, filepath.FromSlash(rel))
	}
	filenames, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	files := make([]*ast.File, 0, len(filenames))
	for _, fn := range filenames {
		f, err := parser.ParseFile(l.fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
		Annot: IndexAnnotations(l.fset, files),

		loader: l,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-internal paths type-check from
// source under the module root; everything else defers to the GOROOT
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModDir, 0)
}

// ImportFrom implements types.ImporterFrom.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		pkg, err := l.loadPackage(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// SortDiagnostics orders findings by file, line, column, analyzer, then
// message, so reports are byte-stable regardless of package traversal or
// analyzer execution order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}
