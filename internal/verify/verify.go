// Package verify implements statistical assertions over measurement
// counts — the debugging/verification layer the paper's recommendation
// 1 calls for ("debugging and verification strategies are a must to
// maximize useful system utilization", citing Huang & Martonosi's
// statistical assertions). An assertion is a hypothesis test: a
// program states what distribution a register should have (here the
// GHZ-style correlation of AssertEqualBits) and the verifier checks
// observed counts against it before the user burns more machine time on
// a buggy circuit.
package verify

import (
	"fmt"
	"math"

	"qcloud/internal/qsim"
)

// Result is the outcome of one assertion.
type Result struct {
	// Passed reports whether the hypothesis survived at the requested
	// significance.
	Passed bool
	// Detail is a human-readable explanation.
	Detail string
}

func (r Result) String() string {
	status := "PASS"
	if !r.Passed {
		status = "FAIL"
	}
	return status + ": " + r.Detail
}

// normalQuantile is the standard normal inverse CDF (Acklam's rational
// approximation, relative error < 1.2e-9).
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	a := []float64{-39.69683028665376, 220.9460984245205, -275.9285104469687,
		138.3577518672690, -30.66479806614716, 2.506628277459239}
	b := []float64{-54.47609879822406, 161.5858368580409, -155.6989798598866,
		66.80131188771972, -13.28068155288572}
	c := []float64{-0.007784894002430293, -0.3223964580411365, -2.400758277161838,
		-2.549732539343734, 4.374664141464968, 2.938163982698783}
	d := []float64{0.007784695709041462, 0.3224671290700398, 2.445134137142996,
		3.754408661907416}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}

// AssertEqualBits checks the GHZ-style correlation: all bits of every
// shot agree (all zeros or all ones), with a tolerance for hardware
// error, and that both branches appear with roughly equal weight.
func AssertEqualBits(counts qsim.Counts, width int, tolerance, alpha float64) Result {
	total := counts.Total()
	if total == 0 {
		return Result{Passed: false, Detail: "no shots"}
	}
	zeros := counts[allBits('0', width)]
	ones := counts[allBits('1', width)]
	bad := total - zeros - ones
	expBad := tolerance * float64(total)
	sigma := math.Sqrt(float64(total) * tolerance * (1 - tolerance))
	z := normalQuantile(1 - alpha)
	if float64(bad) > expBad+z*math.Max(sigma, 1) {
		return Result{Passed: false,
			Detail: fmt.Sprintf("correlation broken: %d/%d mixed shots", bad, total)}
	}
	// Branch balance: binomial around 1/2 over the correlated shots.
	good := zeros + ones
	if good == 0 {
		return Result{Passed: false, Detail: "no correlated shots at all"}
	}
	dev := math.Abs(float64(zeros) - float64(good)/2)
	sigmaB := math.Sqrt(float64(good)) / 2
	if dev > z*sigmaB+1 {
		return Result{Passed: false,
			Detail: fmt.Sprintf("branch imbalance: %d zeros vs %d ones", zeros, ones)}
	}
	return Result{Passed: true,
		Detail: fmt.Sprintf("equal-bits with balance %d/%d", zeros, ones)}
}

func allBits(b byte, n int) string {
	s := make([]byte, n)
	for i := range s {
		s[i] = b
	}
	return string(s)
}
