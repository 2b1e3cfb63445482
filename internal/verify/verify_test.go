package verify

import (
	"math"
	"math/rand"
	"testing"

	"qcloud/internal/circuit/gens"
	"qcloud/internal/qsim"
)

func TestNormalQuantile(t *testing.T) {
	cases := map[float64]float64{
		0.975: 1.959964,
		0.95:  1.644854,
		0.5:   0,
		0.025: -1.959964,
	}
	for p, want := range cases {
		if got := normalQuantile(p); math.Abs(got-want) > 1e-4 {
			t.Fatalf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(normalQuantile(0)) || !math.IsNaN(normalQuantile(1)) {
		t.Fatal("degenerate quantiles should be NaN")
	}
}

func TestAssertEqualBits(t *testing.T) {
	counts, err := qsim.Run(gens.GHZ(4), 5000, nil, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if res := AssertEqualBits(counts, 4, 0.01, 0.01); !res.Passed {
		t.Fatalf("GHZ failed equal-bits: %s", res)
	}
	// A W state breaks the correlation entirely.
	wCounts, err := qsim.Run(gens.WState(4), 5000, nil, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if res := AssertEqualBits(wCounts, 4, 0.01, 0.01); res.Passed {
		t.Fatalf("W state passed equal-bits: %s", res)
	}
}

func TestEmptyCounts(t *testing.T) {
	var empty qsim.Counts
	if AssertEqualBits(empty, 2, 0, 0.05).Passed {
		t.Fatal("an assertion on empty counts must fail")
	}
}

func TestResultString(t *testing.T) {
	r := Result{Passed: true, Detail: "ok"}
	if s := r.String(); s == "" || s[:4] != "PASS" {
		t.Fatalf("Result string: %q", s)
	}
	r.Passed = false
	if s := r.String(); s[:4] != "FAIL" {
		t.Fatalf("Result string: %q", s)
	}
}
