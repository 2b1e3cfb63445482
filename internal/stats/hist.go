package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bucket histogram over [Lo, Hi). Values outside the
// range are clamped into the first/last bucket so no observation is lost.
//
//qcloud:keep no figure bins with it; it goes with the seven Histogram tests of hist_test.go in the next sweep (ROADMAP item 9)
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	N      int64
	log    bool
}

// NewHistogram returns a linear-bucket histogram with n buckets over
// [lo, hi). It panics if n < 1 or hi <= lo, since those are programming
// errors, not data errors.
//
//qcloud:keep goes with Histogram
func NewHistogram(lo, hi float64, n int) *Histogram {
	if n < 1 || hi <= lo {
		panic(fmt.Sprintf("stats: invalid histogram [%g,%g) n=%d", lo, hi, n))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, n)}
}

// NewLogHistogram returns a histogram whose buckets are uniform in
// log-space over [lo, hi). lo must be positive. Log-space buckets suit
// the heavy-tailed queuing-time distributions in the paper (Fig 3 spans
// 10^-2 to 10^3 minutes).
//
//qcloud:keep goes with Histogram
func NewLogHistogram(lo, hi float64, n int) *Histogram {
	if lo <= 0 {
		panic(fmt.Sprintf("stats: log histogram requires lo > 0, got %g", lo))
	}
	h := NewHistogram(math.Log(lo), math.Log(hi), n)
	h.log = true
	return h
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	if h.log {
		if x <= 0 {
			x = math.Inf(-1) // clamps to the first bucket below
		} else {
			x = math.Log(x)
		}
	}
	i := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.N++
}

// BucketLo returns the lower edge of bucket i in data space.
func (h *Histogram) BucketLo(i int) float64 {
	edge := h.Lo + (h.Hi-h.Lo)*float64(i)/float64(len(h.Counts))
	if h.log {
		return math.Exp(edge)
	}
	return edge
}

// CDF returns the empirical cumulative fraction of observations at or
// below the upper edge of bucket i.
func (h *Histogram) CDF(i int) float64 {
	if h.N == 0 {
		return math.NaN()
	}
	var c int64
	for j := 0; j <= i && j < len(h.Counts); j++ {
		c += h.Counts[j]
	}
	return float64(c) / float64(h.N)
}

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
