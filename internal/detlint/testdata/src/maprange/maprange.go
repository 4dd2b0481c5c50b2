// Package maprangetest is maprange's golden corpus: each `want` comment
// pins a diagnostic, and every map read without one must pass.
package maprangetest

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
)

// --- positive cases: order leaks out of the loop ---

func appendNoSort(m map[string]int) []string {
	var out []string
	for k := range m { // want `range over map`
		out = append(out, k)
	}
	return out // slice order is map iteration order
}

func sideEffects(m map[string]int) {
	for k, v := range m { // want `range over map`
		fmt.Println(k, v)
	}
}

func outerWrite(m map[string]int) int {
	last := 0
	for _, v := range m { // want `range over map`
		last = v // final value depends on which iteration ran last
	}
	return last
}

func earlyReturn(m map[string]int) (string, bool) {
	for k := range m { // want `range over map`
		if k != "" {
			return k, true // picks an arbitrary element
		}
	}
	return "", false
}

func stringConcat(m map[string]int) string {
	s := ""
	for k := range m { // want `range over map`
		s += k // concatenation does not commute
	}
	return s
}

func floatSum(m map[int]float64) float64 {
	var sum float64
	for _, v := range m { // want `range over map`
		sum += v // float addition does not associate
	}
	return sum
}

func floatMax(m map[int]float64) float64 {
	best := 0.0
	for _, v := range m { // want `range over map`
		if v > best {
			best = v // 0.0 vs -0.0 ties are not bit-stable
		}
	}
	return best
}

func readBeforeSort(m map[string]int) []string {
	var out []string
	for k := range m { // want `range over map`
		out = append(out, k)
	}
	n := len(out) // any reference before the sort disqualifies the idiom
	sort.Strings(out)
	_ = n
	return out
}

func keyedWriteVariantValue(m map[int]int, out map[int]int) {
	for _, v := range m { // want `range over map`
		out[v] = len(out) // colliding keys store order-dependent values
	}
}

// --- order-insensitive loops: still flagged, the rule proves nothing ---
//
// Each of these bodies is order-free, but maprange does not try to prove
// it: a map is read through sorted keys, so they carry a want like any
// other loop.

func collectThenSort(m map[int]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m { // want `range over map`
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func collectThenSortFunc(m map[int]int) [][2]int {
	var pairs [][2]int
	for k, v := range m { // want `range over map`
		pairs = append(pairs, [2]int{k, v})
	}
	slices.SortFunc(pairs, func(a, b [2]int) int { return a[0] - b[0] })
	return pairs
}

func nestedCollect(mm map[int]map[int]bool) []int {
	var ids []int
	for a, inner := range mm { // want `range over map`
		for b := range inner { // want `range over map`
			if b > a {
				ids = append(ids, a*1000+b)
			}
		}
	}
	sort.Ints(ids)
	return ids
}

func intReduction(m map[string]int) (n, total int) {
	for _, v := range m { // want `range over map`
		n++
		total += v
	}
	return
}

func setBuild(m map[string]int, drop string) map[string]bool {
	set := make(map[string]bool, len(m))
	for k := range m { // want `range over map`
		if k != drop {
			set[k] = true
		}
	}
	return set
}

func keyedTransform(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m { // want `range over map`
		out[k] = v * 2
	}
	return out
}

func deleteKeyed(m map[int]bool, dead map[int]bool) {
	for k := range dead { // want `range over map`
		delete(m, k)
	}
}

func intMax(m map[string]int) int {
	best := 0
	for _, v := range m { // want `range over map`
		if v > best {
			best = v
		}
	}
	return best
}

func constFlag(m map[string]int) bool {
	found := false
	for _, v := range m { // want `range over map`
		if v > 10 {
			found = true
		}
	}
	return found
}

func localScratch(m map[string][]int) int {
	n := 0
	for _, vs := range m { // want `range over map`
		local := 0
		for _, v := range vs {
			local += v
		}
		if local > 0 {
			n++
		}
	}
	return n
}

// A reason in a comment excuses nothing: maprange has no annotation
// escape (annotatedIterator below is the iterator case).

func annotated(m map[string]int) []string {
	var out []string
	// appended keys feed a human-readable summary whose order is cosmetic
	for k := range m { // want `range over map`
		out = append(out, k)
	}
	return out
}

// --- iterators: maps.Keys, maps.Values and maps.All ---

func sortedKeys(m map[string]int) []string {
	return slices.Sorted(maps.Keys(m))
}

func sortedValuesFunc(m map[string]int) []int {
	return slices.SortedFunc(maps.Values(m), cmp.Compare[int])
}

func sortedStableKeys(m map[int]bool) []int {
	return slices.SortedStableFunc(maps.Keys(m), func(a, b int) int { return b - a })
}

func rangeSortedKeys(m map[string]int) int {
	n := 0
	for _, k := range slices.Sorted(maps.Keys(m)) {
		n += m[k] * len(k)
	}
	return n
}

func collectKeys(m map[string]int) []string {
	return slices.Collect(maps.Keys(m)) // want `maps.Keys yields runtime iteration order`
}

func rangeKeys(m map[string]int) []string {
	var out []string
	for k := range maps.Keys(m) { // want `maps.Keys yields runtime iteration order`
		out = append(out, k)
	}
	return out
}

func rangeAll(m map[string]int) string {
	for k, v := range maps.All(m) { // want `maps.All yields runtime iteration order`
		if v > 0 {
			return k
		}
	}
	return ""
}

// The iterator must be slices.Sorted's direct argument: a value that
// could be ranged before the sort is as leaky as the loop.
func sortedLater(m map[string]int) []string {
	seq := maps.Keys(m) // want `maps.Keys yields runtime iteration order`
	return slices.Sorted(seq)
}

func iteratorValue(m map[string]int) int {
	values := maps.Values[map[string]int] // want `maps.Values yields runtime iteration order`
	n := 0
	for v := range values(m) {
		n += v
	}
	return n
}

func annotatedIterator(m map[string]int) int {
	// only the count of keys leaves this function, and it does not depend on order
	return len(slices.Collect(maps.Keys(m))) // want `maps.Keys yields runtime iteration order`
}
