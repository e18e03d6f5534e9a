// Package maprange exercises the maprange analyzer: unannotated map and
// channel ranges are findings — whatever their bodies do with the order,
// float accumulation included — annotated ones and slice/array/string
// ranges are not.
package maprange

import "sort"

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

func badChan(ch chan float64) float64 {
	total := 0.0
	for v := range ch { // want `range over channel`
		total *= v
	}
	return total
}

func annotatedTrailing(m map[int]int) int {
	s := 0
	for k := range m { //lint:ordered commutative integer sum; order does not escape
		s += k
	}
	return s
}

func annotatedLeading(m map[string]int) []string {
	var out []string
	//lint:ordered keys are sorted before use below
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func annotatedFloatSum(bins map[int]float64) float64 {
	total := 0.0
	//lint:ordered bin values are exact small integers; addition is associative in range
	for _, v := range bins {
		total += v
	}
	return total
}

func annotatedChan(done chan struct{}) int {
	n := 0
	for range done { //lint:ordered counting only; order does not escape
		n++
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
