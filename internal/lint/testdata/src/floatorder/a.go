// Package floatorder pins that the float accumulation-order hazard is
// still rejected now that maprange guards it: a compound float assignment
// inside a map (or channel) range fails the gate at the range; sorted-key
// and slice loops pass.
package floatorder

import (
	"maps"
	"slices"
)

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
	total := 0.0
	for _, k := range slices.Sorted(maps.Keys(lat)) {
		total += lat[k]
	}
	return total
}

func goodSlice(bins []float64) float64 {
	total := 0.0
	for _, v := range bins {
		total += v
	}
	return total
}
