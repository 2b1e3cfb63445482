package backend

import (
	"math"
	"testing"
	"time"

	"qcloud/internal/stats"
)

func TestGenCalibrationDeterministic(t *testing.T) {
	topo := falcon27()
	model := DefaultCalibModel(0)
	// Fixed timestamps keep the test input reproducible: a failure
	// replays bit-for-bit, and the wallclock analyzer's test-package
	// exemption list stays empty.
	ts := time.Date(2021, 4, 1, 9, 30, 0, 0, time.UTC)
	a := GenCalibration(topo, model, 42, 100, ts)
	b := GenCalibration(topo, model, 42, 100, ts.Add(37*time.Minute))
	for q := range a.T1 {
		if a.T1[q] != b.T1[q] || a.ErrRO[q] != b.ErrRO[q] {
			t.Fatal("same (seed, epoch) must reproduce calibration")
		}
	}
	c := GenCalibration(topo, model, 42, 101, ts)
	same := true
	for q := range a.T1 {
		if a.T1[q] != c.T1[q] {
			same = false
		}
	}
	if same {
		t.Fatal("different epochs should differ")
	}
}

// TestCalibrationVariationSpatial checks the paper's §IV-B targets:
// CoV of 30-40% for T1/T2 and around 75% for two-qubit error rates.
func TestCalibrationVariationSpatial(t *testing.T) {
	topo := HeavyHexLike(65)
	model := DefaultCalibModel(0)
	var t1CoVs, cxCoVs []float64
	for epoch := 0; epoch < 60; epoch++ {
		cal := GenCalibration(topo, model, 7, epoch, time.Time{})
		t1CoVs = append(t1CoVs, stats.CoV(cal.T1))
		cxErrs := make([]float64, 0, len(cal.ErrCX))
		for _, e := range cal.ErrCX {
			cxErrs = append(cxErrs, e)
		}
		cxCoVs = append(cxCoVs, stats.CoV(cxErrs))
	}
	t1 := stats.Mean(t1CoVs)
	cx := stats.Mean(cxCoVs)
	if t1 < 0.25 || t1 > 0.55 {
		t.Fatalf("T1 CoV = %.2f, want ~0.30-0.40", t1)
	}
	if cx < 0.55 || cx > 1.0 {
		t.Fatalf("CX-error CoV = %.2f, want ~0.75", cx)
	}
}

// TestCalibrationVariationTemporal checks the ">2x variation in error
// rates in terms of day-to-day averages" claim drives our model.
func TestCalibrationVariationTemporal(t *testing.T) {
	topo := falcon27()
	model := DefaultCalibModel(0)
	var dayMeans []float64
	for epoch := 0; epoch < 120; epoch++ {
		cal := GenCalibration(topo, model, 11, epoch, time.Time{})
		dayMeans = append(dayMeans, cal.MeanCXError())
	}
	ratio := stats.Max(dayMeans) / stats.Min(dayMeans)
	if ratio < 2 {
		t.Fatalf("day-to-day max/min CX error ratio = %.2f, want > 2", ratio)
	}
}

func TestCXErrorLookup(t *testing.T) {
	cal := GenCalibration(Line(3), DefaultCalibModel(0), 1, 0, time.Time{})
	if cal.CXError(1, 0, 9) == 9 {
		t.Fatal("coupled pair should have calibrated error either order")
	}
	if cal.CXError(0, 2, 9) != 9 {
		t.Fatal("uncoupled pair should return default")
	}
}

// TestMeanCXErrorStable pins MeanCXError to one float: the sum of
// ErrCX in topology edge order over the edge count, bit-identical on
// every call. A sum over the map adds in iteration order, which moves
// the last bits from call to call on most of the fleet.
func TestMeanCXErrorStable(t *testing.T) {
	at := time.Date(2021, 3, 1, 12, 0, 0, 0, time.UTC)
	for _, m := range Fleet() {
		if !m.AvailableAt(at) {
			continue
		}
		cal := m.CalibrationAt(at)
		want := 0.0
		for _, e := range m.Topo.Edges {
			want += cal.ErrCX[e]
		}
		if n := len(m.Topo.Edges); n > 0 {
			want /= float64(n)
		}
		for i := 0; i < 200; i++ {
			if got := cal.MeanCXError(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s call %d: MeanCXError = %v, want the edge-order mean %v", m.Name, i, got, want)
			}
		}
	}
}

func TestMeanCXErrorEmpty(t *testing.T) {
	cal := GenCalibration(mustTopology(1, nil), DefaultCalibModel(0), 1, 0, time.Time{})
	if cal.MeanCXError() != 0 {
		t.Fatal("no couplers should mean 0")
	}
}

func TestT2AtMostTwiceT1(t *testing.T) {
	cal := GenCalibration(HeavyHexLike(65), DefaultCalibModel(1), 3, 17, time.Time{})
	for q := range cal.T1 {
		if cal.T2[q] > 2*cal.T1[q]+1e-9 {
			t.Fatalf("qubit %d: T2=%v > 2*T1=%v", q, cal.T2[q], 2*cal.T1[q])
		}
	}
}

func TestClampProb(t *testing.T) {
	if clampProb(-1) != 1e-6 || clampProb(0.9) != 0.5 || clampProb(0.01) != 0.01 {
		t.Fatal("clampProb wrong")
	}
}

func TestDriftedCXError(t *testing.T) {
	cal := GenCalibration(Line(5), DefaultCalibModel(0), 5, 3, time.Time{})
	base := cal.CXError(0, 1, 0)
	// Drift at zero hours equals the calibrated value.
	if got := DriftedCXError(cal, 0, 1, 0, 0); math.Abs(got-base) > 1e-12 {
		t.Fatalf("zero-hour drift changed error: %v vs %v", got, base)
	}
	// Drift stays within physical bounds over a long stale window.
	for h := 0.0; h < 72; h += 1.5 {
		e := DriftedCXError(cal, 0, 1, h, 0)
		if e <= 0 || e > 0.5 {
			t.Fatalf("drifted error out of range at h=%v: %v", h, e)
		}
	}
	// Order of qubits must not matter.
	if DriftedCXError(cal, 1, 0, 10, 0) != DriftedCXError(cal, 0, 1, 10, 0) {
		t.Fatal("drift should be symmetric in qubit order")
	}
}

func TestDefaultCalibModelTiers(t *testing.T) {
	if DefaultCalibModel(0).BaseCXErr >= DefaultCalibModel(2).BaseCXErr {
		t.Fatal("tier 0 should be better than tier 2")
	}
}
