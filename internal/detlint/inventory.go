package detlint

// The annotation inventory behind `detlint -annotations`: every //det:
// tag in the tree with its location and justification, so annotation
// audits are reviewable at a glance (and diffable across PRs — the
// output is sorted and module-relative).

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// An AnnotationRecord is one //det: comment found in the tree.
type AnnotationRecord struct {
	File   string // module-relative, slash-separated
	Line   int
	Tag    string
	Reason string
}

// CollectAnnotations walks every .go file under root — including tests
// and testdata, matching the audit test's coverage — and returns every
// //det: annotation sorted by (file, line).
func CollectAnnotations(root string) ([]AnnotationRecord, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasPrefix(name, ".") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var recs []AnnotationRecord
	fset := token.NewFileSet()
	for _, fn := range files {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			continue // unparsable testdata is the audit test's problem
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ann, ok := ParseAnnotation(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Slash)
				rel := pos.Filename
				if r, err := filepath.Rel(root, pos.Filename); err == nil {
					rel = filepath.ToSlash(r)
				}
				recs = append(recs, AnnotationRecord{
					File:   rel,
					Line:   pos.Line,
					Tag:    ann.Tag,
					Reason: ann.Reason,
				})
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].File != recs[j].File {
			return recs[i].File < recs[j].File
		}
		return recs[i].Line < recs[j].Line
	})
	return recs, nil
}
