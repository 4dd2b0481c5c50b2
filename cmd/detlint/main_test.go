package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSeededInjections builds a throwaway module containing one
// violation of each class the suite enforces and asserts every analyzer
// fires — the CI-facing proof that a regression in any class cannot
// land silently.
func TestSeededInjections(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module injected\n\ngo 1.24\n")
	write("bad/bad.go", `package bad

import (
	"maps"
	"math/rand"
	"slices"
	"time"
)

func MapOrderLeak(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func WallClock() time.Time {
	return time.Now()
}

func GlobalRandomness(n int) int {
	return rand.Intn(n)
}

func FloatFold(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v
	}
	return sum
}

func IteratorOrderLeak(m map[string]int) []string {
	return slices.Collect(maps.Keys(m))
}

func IteratorFloatFold(m map[int]float64) float64 {
	var sum float64
	//det:unordered a retired escape excuses nothing
	for v := range maps.Values(m) {
		sum += v
	}
	return sum
}
`)
	// testonly: of the internal package's exports, only Unused lacks a
	// production reference, a facade alias, an interface it implements for
	// a production caller, or a //det:api reason.
	write("internal/api/api.go", `package api

import "sort"

type Thing struct{}

func (Thing) Facade() int { return 1 }

type byValue []int

func (b byValue) Len() int           { return len(b) }
func (b byValue) Less(i, j int) bool { return b[i] < b[j] }
func (b byValue) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func Sorted(xs []int) []int {
	sort.Sort(byValue(xs))
	return xs
}

func Unused() int { return 2 }

//det:api an out-of-module caller needs it
func Kept() int { return 3 }
`)
	write("facade.go", `package injected

import "injected/internal/api"

type Thing = api.Thing

var Sorted = api.Sorted
`)
	diags, npkgs, err := lint(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if npkgs != 3 {
		t.Fatalf("analyzed %d packages, want 3", npkgs)
	}
	got := make(map[string]int)
	var testonly []string
	for _, d := range diags {
		got[d.Analyzer]++
		if d.Analyzer == "testonly" {
			testonly = append(testonly, d.Message)
		}
	}
	// maprange: the two map ranges, the unsorted maps.Keys and the
	// maps.Values range, which its //det:unordered comment does not excuse.
	if got["maprange"] != 4 {
		t.Errorf("%d maprange findings, want 4: %v", got["maprange"], diags)
	}
	for _, name := range []string{"maprange", "walltime", "globalrand", "testonly"} {
		if got[name] == 0 {
			t.Errorf("injected %s violation not detected; findings: %v", name, diags)
		}
	}
	if len(testonly) != 1 || !strings.Contains(testonly[0], "exported Unused ") {
		t.Errorf("testonly findings %q, want exactly one, for Unused", testonly)
	}
	// A partial load cannot tell test-only exports from ones the unloaded
	// packages use, so testonly stays silent rather than guessing.
	partial, _, err := lint(dir, []string{"./internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range partial {
		if d.Analyzer == "testonly" {
			t.Errorf("testonly fired on a partial load: %v", d)
		}
	}
}

// TestRepoIsClean runs the full suite over this repository — the same
// gate CI runs — so `go test ./...` alone already enforces the static
// determinism contract.
func TestRepoIsClean(t *testing.T) {
	root, err := findModuleRoot()
	if err != nil {
		t.Fatal(err)
	}
	diags, npkgs, err := lint(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if npkgs == 0 {
		t.Fatal("no packages analyzed")
	}
	if len(diags) != 0 {
		var b strings.Builder
		for _, d := range diags {
			b.WriteString("\n  " + d.String())
		}
		t.Fatalf("detlint findings in the tree:%s", b.String())
	}
}
