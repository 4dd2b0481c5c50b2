// Package floatrangetest is floatrange's golden corpus.
package floatrangetest

import (
	"maps"
	"slices"
)

func sum(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want `floating-point fold`
	}
	return total
}

func spelledOut(m map[int]float64) float64 {
	total := 0.0
	for _, v := range m {
		total = total + v // want `floating-point fold`
	}
	return total
}

func product(m map[int]float64) float64 {
	p := 1.0
	for _, v := range m {
		p *= v // want `floating-point fold`
	}
	return p
}

type acc struct{ sum float64 }

func fieldFold(m map[int]float64, a *acc) {
	for _, v := range m {
		a.sum += v // want `floating-point fold`
	}
}

// A //det:unordered justification cannot excuse a float fold — it is
// order-dependent by definition; only //det:floatfold can.
func unorderedIsNotEnough(m map[int]float64) float64 {
	var total float64
	//det:unordered mistaken justification, the author believed float sums commute
	for _, v := range m {
		total += v // want `floating-point fold`
	}
	return total
}

// A range over maps.Values or maps.All visits the map in the same
// runtime order as a range over the map itself.
func iteratorFold(m map[int]float64) float64 {
	var total float64
	//det:unordered mistaken justification, the values are only summed
	for v := range maps.Values(m) {
		total += v // want `floating-point fold`
	}
	return total
}

func allFold(m map[int]float64) (total float64) {
	//det:unordered mistaken justification, the pairs are only summed
	for k, v := range maps.All(m) {
		total += float64(k) * v // want `floating-point fold`
	}
	return
}

// --- negative cases ---

func sortedFold(m map[int]float64) float64 {
	var total float64
	for _, v := range slices.Sorted(maps.Values(m)) {
		total += v // sorted values fold in one fixed order
	}
	return total
}

func intFold(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v // integer addition commutes bit-exactly
	}
	return n
}

func localAccumulator(m map[int][]float64) int {
	n := 0
	for _, vs := range m {
		s := 0.0
		for _, v := range vs {
			s += v // accumulator dies with the iteration
		}
		if s > 1 {
			n++
		}
	}
	return n
}

func annotatedFold(m map[int]float64) float64 {
	var total float64
	for _, v := range m {
		total += v //det:floatfold every value is an exact power of two, so the sum is exact and commutes
	}
	return total
}

func loopAnnotated(m map[int]float64) (a, b float64) {
	//det:floatfold both folds are over exact table values whose sums stay exact at any order
	for _, v := range m {
		a += v
		b -= v
	}
	return
}
