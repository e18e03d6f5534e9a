// Package floatorder pins that the float accumulation-order hazard is
// still rejected now that maprange guards it: a compound float assignment
// inside an unannotated map (or channel) range fails the gate at the
// range; integer accumulation, ordered loops, and annotated ranges pass.
package floatorder

import "sort"

func badSum(lat map[int]float64) float64 {
	total := 0.0
	for _, v := range lat { // want `range over map`
		total += v
	}
	return total
}

func badNested(groups map[string][]float64) float64 {
	total := 0.0
	for _, vs := range groups { // want `range over map`
		for _, v := range vs {
			total += v
		}
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

func goodSorted(lat map[int]float64) float64 {
	keys := make([]int, 0, len(lat))
	//lint:ordered collecting keys for sorting; values untouched
	for k := range lat {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	total := 0.0
	for _, k := range keys {
		total += lat[k]
	}
	return total
}

func goodAnnotated(bins map[int]float64) float64 {
	total := 0.0
	//lint:ordered bin values are exact small integers; addition is associative in range
	for _, v := range bins {
		total += v
	}
	return total
}
