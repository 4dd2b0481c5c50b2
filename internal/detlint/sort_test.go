package detlint

import (
	"go/token"
	"reflect"
	"testing"
)

// TestSortDiagnosticsOrder pins the total order of diagnostic output:
// (file, line, column, analyzer, message). The printer relies on this
// sort, so the order is a compatibility surface —
// shuffling it breaks golden CI logs and any downstream diffing.
func TestSortDiagnosticsOrder(t *testing.T) {
	d := func(file string, line, col int, analyzer, msg string) Diagnostic {
		return Diagnostic{
			Analyzer: analyzer,
			Pos:      token.Position{Filename: file, Line: line, Column: col},
			Message:  msg,
		}
	}

	want := []Diagnostic{
		d("a/a.go", 1, 1, "globalrand", "rand.Intn"),
		d("a/a.go", 1, 1, "testonly", "unused export"),
		d("a/a.go", 1, 1, "testonly", "unused export via alias"),
		d("a/a.go", 1, 9, "maprange", "map iteration"),
		d("a/a.go", 4, 2, "walltime", "time.Now"),
		d("b/b.go", 1, 1, "maprange", "maps.Keys"),
	}

	// Feed the exact reverse: every comparison tier must fire to
	// restore the order above.
	got := make([]Diagnostic, len(want))
	for i := range want {
		got[len(want)-1-i] = want[i]
	}

	SortDiagnostics(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SortDiagnostics order mismatch:\n got: %v\nwant: %v", got, want)
	}
}

// TestSortDiagnosticsStable verifies determinism: sorting any
// permutation of the same multiset yields byte-identical output.
func TestSortDiagnosticsStable(t *testing.T) {
	base := []Diagnostic{
		{Analyzer: "testonly", Pos: token.Position{Filename: "x.go", Line: 2, Column: 3}, Message: "m1"},
		{Analyzer: "testonly", Pos: token.Position{Filename: "x.go", Line: 2, Column: 3}, Message: "m0"},
		{Analyzer: "globalrand", Pos: token.Position{Filename: "x.go", Line: 2, Column: 3}, Message: "m2"},
	}
	a := append([]Diagnostic(nil), base...)
	b := []Diagnostic{base[2], base[0], base[1]}
	SortDiagnostics(a)
	SortDiagnostics(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("different permutations sorted differently:\n a: %v\n b: %v", a, b)
	}
	if a[0].Analyzer != "globalrand" || a[1].Message != "m0" || a[2].Message != "m1" {
		t.Fatalf("unexpected order after sort: %v", a)
	}
}
