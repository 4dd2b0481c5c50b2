package detlint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The determinism-annotation grammar (DESIGN.md §11): a line comment of
// the form
//
//	//det:<tag> <justification>
//
// written either on the line immediately above the statement it excuses
// or trailing on the same line. The justification is mandatory — the
// meta-test in annot_audit_test.go fails the build on a bare tag — so
// every suppression stays auditable.
const (
	// TagWallclock excuses a wall-clock read that feeds measured-time
	// reporting (never a simulation decision).
	TagWallclock = "wallclock"
	// TagAPI keeps an exported internal/ identifier that no production
	// file references; the justification must name the caller that needs
	// it (the testonly analyzer).
	TagAPI = "api"
)

// An Annotation is one parsed //det: comment.
type Annotation struct {
	Tag    string // one of the Tag constants ("wallclock", "api")
	Reason string // justification text after the tag; "" when bare
}

// ParseAnnotation parses a comment's text, returning ok=false when the
// comment is not a //det: annotation at all. Unknown tags parse with
// ok=true so audits can flag them.
func ParseAnnotation(text string) (Annotation, bool) {
	body, found := strings.CutPrefix(text, "//det:")
	if !found {
		return Annotation{}, false
	}
	tag, reason, _ := strings.Cut(body, " ")
	return Annotation{Tag: strings.TrimSpace(tag), Reason: strings.TrimSpace(reason)}, true
}

// Annotations indexes every //det: comment of a package by file and line
// so analyzers can answer "is this statement excused?" in O(1).
type Annotations struct {
	fset *token.FileSet
	// byLine maps filename → line → the tag of the annotation on it.
	byLine map[string]map[int]string
}

// IndexAnnotations scans the comment lists of files (which must have been
// parsed with parser.ParseComments).
func IndexAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{fset: fset, byLine: make(map[string]map[int]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ann, ok := ParseAnnotation(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Slash)
				lines := a.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int]string)
					a.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = ann.Tag
			}
		}
	}
	return a
}

// Has reports whether an annotation with the given tag covers the node
// at pos: either trailing on the node's line or alone on the line above
// it. A bare (reason-less) annotation still counts here — keeping the
// contract honest is the audit test's job, not the analyzer's.
func (a *Annotations) Has(pos token.Pos, tag string) bool {
	if a == nil {
		return false
	}
	p := a.fset.Position(pos)
	lines := a.byLine[p.Filename]
	return lines[p.Line] == tag || lines[p.Line-1] == tag
}
