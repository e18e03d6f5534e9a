// Package maprange exercises the maprange analyzer: map, channel and
// maps-iterator ranges are findings — whatever their bodies do with the order, float
// accumulation included — and slice/array/string ranges are not.
package maprange

import (
	"maps"
	"slices"
)

func bad(m map[int]int) int {
	s := 0
	for k := range m { // want `range over map`
		s += k
	}
	return s
}

func badCollect(m map[string]int) []string {
	var out []string
	for k := range m { // want `range over map`
		out = append(out, k)
	}
	return out
}

func badFloatSum(lat map[int]float64) float64 {
	total := 0.0
	for _, v := range lat { // want `range over map`
		total += v
	}
	return total
}

// Go 1.23's map iterators yield in map order too.
func badIterators(lat map[int]float64) float64 {
	total := 0.0
	for _, v := range maps.All(lat) { // want `range over a maps iterator`
		total += v
	}
	for k := range maps.Keys(lat) { // want `range over a maps iterator`
		total -= float64(k)
	}
	for v := range maps.Values(lat) { // want `range over a maps iterator`
		total *= v
	}
	return total
}

func badChan(ch chan float64) float64 {
	total := 0.0
	for v := range ch { // want `range over channel`
		total *= v
	}
	return total
}

// A `//lint:ordered` comment is no longer an escape hatch: the range
// under it is a finding like any other.
func formerlyAnnotated(m map[int]int) int {
	s := 0
	//lint:ordered commutative integer sum; order does not escape
	for k := range m { // want `range over map`
		s += k
	}
	return s
}

func sortedKeys(m map[string]int) []string {
	return slices.Sorted(maps.Keys(m)) // ok: not a range statement
}

func sortedRange(m map[string]int) int {
	n := 0
	for _, k := range slices.Sorted(maps.Keys(m)) { // ok: a slice
		n += m[k]
	}
	return n
}

func sliceRange(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func namedMapType(m mapAlias) int {
	n := 0
	for range m { // want `range over map`
		n++
	}
	return n
}

type mapAlias map[int]bool

// Algo names a routing mechanism.
type Algo int

// Cut down from a defect seeded in sim's Figure 9 that no other check
// fails on: the figure's mechanism rows come out of a map range, on a
// table no golden pins.
func fig9Algos() []Algo {
	var algos []Algo
	for a := range map[Algo]bool{1: true, 2: true} { // want `range over map`
		algos = append(algos, a)
	}
	return algos
}
