package stats

import "math"

// ViolinSummary captures the quantile skeleton of a distribution the way
// the paper's violin plots do (Figs 8, 10, 13): extremes, quartiles,
// 5th/95th percentiles, mean and count.
type ViolinSummary struct {
	N                    int
	Min, Max             float64
	P5, Q1, Med, Q3, P95 float64
	Mean                 float64
}

// Violin computes a ViolinSummary of xs. Empty input yields a summary
// with N == 0 and NaN statistics.
func Violin(xs []float64) ViolinSummary {
	v := ViolinSummary{N: len(xs)}
	if len(xs) == 0 {
		nan := math.NaN()
		v.Min, v.Max, v.P5, v.Q1, v.Med, v.Q3, v.P95, v.Mean = nan, nan, nan, nan, nan, nan, nan, nan
		return v
	}
	sorted := SortedCopy(xs)
	qs := QuantilesSorted(sorted, 0, 0.05, 0.25, 0.5, 0.75, 0.95, 1)
	v.Min, v.P5, v.Q1, v.Med, v.Q3, v.P95, v.Max = qs[0], qs[1], qs[2], qs[3], qs[4], qs[5], qs[6]
	v.Mean = Mean(xs)
	return v
}
