package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestSolveLinearKnown(t *testing.T) {
	A := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := SolveLinear(A, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 1, 1e-9) || !almostEqual(x[1], 3, 1e-9) {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	A := [][]float64{{1, 2}, {2, 4}}
	if _, err := SolveLinear(A, []float64{1, 2}); err == nil {
		t.Fatal("expected singular error")
	}
}

func TestSolveLinearPivoting(t *testing.T) {
	// Zero on the first diagonal entry forces a pivot swap.
	A := [][]float64{{0, 1}, {1, 0}}
	x, err := SolveLinear(A, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 4, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Fatalf("x = %v, want [4 3]", x)
	}
}

func TestLinearFitRecoversCoefficients(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := r.Float64()*10, r.Float64()*10
		X[i] = []float64{1, a, b}
		y[i] = 2 + 3*a - 0.5*b + r.NormFloat64()*0.01
	}
	beta, err := LinearFit(X, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -0.5}
	for i := range want {
		if !almostEqual(beta[i], want[i], 0.01) {
			t.Fatalf("beta = %v, want approx %v", beta, want)
		}
	}
}

func TestLinearFitRagged(t *testing.T) {
	if _, err := LinearFit([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for ragged matrix")
	}
}

// productModel is the paper's execution-time model: Π(a_i + b_i·x_i).
func productModel(x []float64, theta []float64) float64 {
	prod := 1.0
	for i := range x {
		prod *= theta[2*i] + theta[2*i+1]*x[i]
	}
	return prod
}

func TestCurveFitProductOfLinearTerms(t *testing.T) {
	// Ground truth: (1 + 2x)(3 + 0.5y)
	r := rand.New(rand.NewSource(5))
	n := 400
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a, b := r.Float64()*4, r.Float64()*4
		X[i] = []float64{a, b}
		y[i] = (1 + 2*a) * (3 + 0.5*b)
	}
	theta, err := CurveFit(productModel, X, y, []float64{0.5, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	// The parameterization is only unique up to scaling between factors,
	// so validate by prediction quality instead of raw parameters.
	yhat := make([]float64, n)
	for i := range X {
		yhat[i] = productModel(X[i], theta)
	}
	if r2 := RSquared(y, yhat); r2 < 0.999 {
		t.Fatalf("R² = %v, want > 0.999", r2)
	}
}

func TestCurveFitNoisy(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := 600
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		a := r.Float64() * 10
		X[i] = []float64{a}
		y[i] = (2 + 1.5*a) + r.NormFloat64()*0.2
	}
	theta, err := CurveFit(productModel, X, y, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(theta[0], 2, 0.1) || !almostEqual(theta[1], 1.5, 0.05) {
		t.Fatalf("theta = %v, want approx [2 1.5]", theta)
	}
}

func TestCurveFitEmpty(t *testing.T) {
	if _, err := CurveFit(productModel, nil, nil, []float64{1, 1}); err == nil {
		t.Fatal("expected error on empty input")
	}
}

func TestRSquaredPerfect(t *testing.T) {
	y := []float64{1, 2, 3}
	if got := RSquared(y, y); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("R² = %v, want 1", got)
	}
	if !math.IsNaN(RSquared([]float64{1, 1}, []float64{1, 1})) {
		t.Fatal("R² of constant y should be NaN")
	}
}

// RSquared returns the coefficient of determination of predictions yhat
// against observations y.
func RSquared(y, yhat []float64) float64 {
	if len(y) != len(yhat) || len(y) == 0 {
		return math.NaN()
	}
	m := Mean(y)
	var ssRes, ssTot float64
	for i := range y {
		d := y[i] - yhat[i]
		ssRes += d * d
		t := y[i] - m
		ssTot += t * t
	}
	if ssTot == 0 {
		return math.NaN()
	}
	return 1 - ssRes/ssTot
}
