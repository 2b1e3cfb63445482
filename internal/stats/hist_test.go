package stats

import (
	"math"
	"testing"
)

func TestViolinSummary(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i) // 0..100
	}
	v := Violin(xs)
	if v.N != 101 || v.Min != 0 || v.Max != 100 {
		t.Fatalf("violin extremes: %+v", v)
	}
	if v.Med != 50 || v.Q1 != 25 || v.Q3 != 75 {
		t.Fatalf("violin quartiles: %+v", v)
	}
	if v.P5 != 5 || v.P95 != 95 {
		t.Fatalf("violin percentiles: %+v", v)
	}
	if v.Mean != 50 {
		t.Fatalf("violin mean: %v", v.Mean)
	}
}

func TestViolinEmpty(t *testing.T) {
	v := Violin(nil)
	if v.N != 0 || !math.IsNaN(v.Med) {
		t.Fatalf("empty violin: %+v", v)
	}
}
