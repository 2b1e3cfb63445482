package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a least-squares system has no unique
// solution (collinear features, too few observations).
var ErrSingular = errors.New("stats: singular system")

// LinearFit solves the ordinary-least-squares problem y ≈ X·beta via the
// normal equations with Gaussian elimination and partial pivoting.
// X is row-major: X[i] is the feature vector of observation i (include a
// 1.0 column yourself for an intercept). It returns the coefficient
// vector beta.
func LinearFit(X [][]float64, y []float64) ([]float64, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, ErrEmpty
	}
	p := len(X[0])
	for i, row := range X {
		if len(row) != p {
			return nil, fmt.Errorf("stats: ragged design matrix at row %d", i)
		}
	}
	// Normal equations: (XᵀX) beta = Xᵀy.
	xtx := make([][]float64, p)
	xty := make([]float64, p)
	for i := 0; i < p; i++ {
		xtx[i] = make([]float64, p)
	}
	for _, row := range X {
		for i := 0; i < p; i++ {
			for j := i; j < p; j++ {
				xtx[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	for k, row := range X {
		for i := 0; i < p; i++ {
			xty[i] += row[i] * y[k]
		}
	}
	return SolveLinear(xtx, xty)
}

// SolveLinear solves A·x = b by Gaussian elimination with partial
// pivoting. A and b are not modified.
func SolveLinear(A [][]float64, b []float64) ([]float64, error) {
	n := len(A)
	if n == 0 || len(b) != n {
		return nil, ErrEmpty
	}
	// Work on copies.
	m := make([][]float64, n)
	for i := range A {
		if len(A[i]) != n {
			return nil, fmt.Errorf("stats: non-square matrix row %d", i)
		}
		m[i] = append([]float64(nil), A[i]...)
		m[i] = append(m[i], b[i])
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := m[i][n]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, nil
}

// ModelFunc evaluates a parametric model at feature vector x with
// parameters theta.
type ModelFunc func(x []float64, theta []float64) float64

// CurveFit fits theta to minimize Σ (y_i - f(X_i, theta))² using
// Levenberg-Marquardt with a forward-difference Jacobian. It is the Go
// equivalent of the scipy.optimize curve_fit call the paper uses to
// train its execution-time model (§VI-C). theta0 is the starting point
// and is not modified; the fitted parameters are returned. The
// iteration runs at most 300 steps from damping 1e-3 and stops once a
// step improves the squared residual by less than 1e-10 relative.
func CurveFit(f ModelFunc, X [][]float64, y []float64, theta0 []float64) ([]float64, error) {
	const (
		maxIter = 300
		tol     = 1e-10
		lambda0 = 1e-3
	)
	n := len(X)
	if n == 0 || n != len(y) {
		return nil, ErrEmpty
	}
	p := len(theta0)
	theta := append([]float64(nil), theta0...)
	lambda := lambda0

	residuals := func(t []float64) ([]float64, float64) {
		r := make([]float64, n)
		ss := 0.0
		for i := range X {
			r[i] = y[i] - f(X[i], t)
			ss += r[i] * r[i]
		}
		return r, ss
	}

	r, ss := residuals(theta)
	for iter := 0; iter < maxIter; iter++ {
		// Forward-difference Jacobian J[i][j] = ∂f(X_i)/∂theta_j.
		J := make([][]float64, n)
		for i := range J {
			J[i] = make([]float64, p)
		}
		for j := 0; j < p; j++ {
			h := 1e-7 * (math.Abs(theta[j]) + 1e-7)
			tp := append([]float64(nil), theta...)
			tp[j] += h
			for i := range X {
				J[i][j] = (f(X[i], tp) - (y[i] - r[i])) / h
			}
		}
		// Solve (JᵀJ + λ·diag(JᵀJ))·δ = Jᵀr.
		jtj := make([][]float64, p)
		jtr := make([]float64, p)
		for i := 0; i < p; i++ {
			jtj[i] = make([]float64, p)
		}
		for i := 0; i < n; i++ {
			for a := 0; a < p; a++ {
				jtr[a] += J[i][a] * r[i]
				for b := a; b < p; b++ {
					jtj[a][b] += J[i][a] * J[i][b]
				}
			}
		}
		for a := 0; a < p; a++ {
			for b := 0; b < a; b++ {
				jtj[a][b] = jtj[b][a]
			}
		}
		improved := false
		for attempt := 0; attempt < 20; attempt++ {
			damped := make([][]float64, p)
			for a := 0; a < p; a++ {
				damped[a] = append([]float64(nil), jtj[a]...)
				damped[a][a] += lambda * (jtj[a][a] + 1e-12)
			}
			delta, err := SolveLinear(damped, jtr)
			if err != nil {
				lambda *= 10
				continue
			}
			trial := make([]float64, p)
			for a := 0; a < p; a++ {
				trial[a] = theta[a] + delta[a]
			}
			rt, sst := residuals(trial)
			if sst < ss {
				relImprove := (ss - sst) / (ss + 1e-300)
				theta, r, ss = trial, rt, sst
				lambda = math.Max(lambda/10, 1e-12)
				improved = true
				if relImprove < tol {
					return theta, nil
				}
				break
			}
			lambda *= 10
		}
		if !improved {
			break // converged (or stuck): current theta is the best found
		}
	}
	return theta, nil
}
