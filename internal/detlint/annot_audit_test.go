package detlint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// knownTags lists every valid annotation tag. "specwrite" is no
// analyzer's any more; it stays known only for its one remaining site,
// benchmark/trace.go:185, until that line is deleted.
var knownTags = []string{TagWallclock, TagAPI, "specwrite"}

// TestAnnotationsAreJustified walks every .go file in the repository
// (tests and golden testdata included) and fails on any //det:
// annotation that is bare, too thin to audit, or uses an unknown tag.
// Suppressing an analyzer is allowed only with a reviewable argument —
// this test is what keeps the escape hatch honest.
func TestAnnotationsAreJustified(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	nAnnot := 0
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		// Comments must come from the parser, not a text grep: analyzer
		// messages legitimately contain "//det:" inside string literals.
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return fmt.Errorf("%s: %v", path, perr)
		}
		rel, _ := filepath.Rel(root, path)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ann, ok := ParseAnnotation(c.Text)
				if !ok {
					continue
				}
				nAnnot++
				line := fset.Position(c.Slash).Line
				if !slices.Contains(knownTags, ann.Tag) {
					t.Errorf("%s:%d: unknown determinism annotation tag %q (known: %s)",
						rel, line, ann.Tag, strings.Join(knownTags, ", "))
					continue
				}
				if ann.Reason == "" {
					t.Errorf("%s:%d: bare //det:%s — every suppression needs a justification string",
						rel, line, ann.Tag)
					continue
				}
				if len(strings.Fields(ann.Reason)) < 3 {
					t.Errorf("%s:%d: //det:%s justification %q is too thin to audit — explain why order/time cannot leak",
						rel, line, ann.Tag, ann.Reason)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if nAnnot == 0 {
		t.Fatal("no //det: annotations found anywhere — the walk is broken (testdata alone carries several)")
	}
}

// TestParseAnnotation pins the annotation grammar itself, and which
// tags the audit knows: the retired maprange and floatrange escapes
// (unordered, floatfold) parse but are unknown, so a leftover one fails
// TestAnnotationsAreJustified.
func TestParseAnnotation(t *testing.T) {
	cases := []struct {
		text   string
		ok     bool
		tag    string
		reason string
		known  bool
	}{
		{"//det:wallclock observability only", true, "wallclock", "observability only", true},
		{"//det:api an out-of-module caller", true, "api", "an out-of-module caller", true},
		{"//det:wallclock", true, "wallclock", "", true},
		{"//det:unordered keys feed a set", true, "unordered", "keys feed a set", false},
		{"//det:floatfold exact powers of two", true, "floatfold", "exact powers of two", false},
		{"//det:bogus some words here", true, "bogus", "some words here", false},
		{"// det:wallclock spaced prefix is not an annotation", false, "", "", false},
		{"// plain comment", false, "", "", false},
	}
	for _, c := range cases {
		ann, ok := ParseAnnotation(c.text)
		if ok != c.ok || ann.Tag != c.tag || ann.Reason != c.reason {
			t.Errorf("ParseAnnotation(%q) = (%q, %q, %v), want (%q, %q, %v)",
				c.text, ann.Tag, ann.Reason, ok, c.tag, c.reason, c.ok)
		}
		if known := slices.Contains(knownTags, ann.Tag); ok && known != c.known {
			t.Errorf("tag %q known = %v, want %v", ann.Tag, known, c.known)
		}
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test working directory")
		}
		dir = parent
	}
}
