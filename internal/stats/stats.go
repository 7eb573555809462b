// Package stats holds the order statistics every report in the tree
// shares, so "p90" means the same thing in a campaign aggregate and in
// a trace-analytics table.
package stats

import "math"

// Quantile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// (ascending) values: the element at rank ceil(p·n). It is 0 on an
// empty slice.
func Quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Mean returns the arithmetic mean of vals, summed in slice order; 0
// on an empty slice.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
