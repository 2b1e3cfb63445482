package compile

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"qcloud/internal/circuit"
)

// equalUpToPhase reports whether a = e^{iα}·b for some α.
func equalUpToPhase(a, b mat2, tol float64) bool {
	// Find the largest entry of b to anchor the phase.
	ref := 0
	for i := 1; i < 4; i++ {
		if cmplx.Abs(b[i]) > cmplx.Abs(b[ref]) {
			ref = i
		}
	}
	if cmplx.Abs(b[ref]) < tol {
		return false
	}
	phase := a[ref] / b[ref]
	if math.Abs(cmplx.Abs(phase)-1) > tol {
		return false
	}
	for i := 0; i < 4; i++ {
		if cmplx.Abs(a[i]-phase*b[i]) > tol {
			return false
		}
	}
	return true
}

func rzMat(th float64) mat2 {
	g := circuit.NewGate(circuit.OpRZ, []int{0}, th)
	m, _ := gateMat2(g)
	return m
}

func sxMat() mat2 {
	m, _ := gateMat2(circuit.NewGate(circuit.OpSX, []int{0}))
	return m
}

// TestZSXZSXZIdentity verifies the decomposition BasisTranslator relies
// on: U(θ,φ,λ) = RZ(φ+π)·SX·RZ(θ+π)·SX·RZ(λ) up to global phase.
func TestZSXZSXZIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		th := r.Float64()*4*math.Pi - 2*math.Pi
		ph := r.Float64()*4*math.Pi - 2*math.Pi
		la := r.Float64()*4*math.Pi - 2*math.Pi
		want := circuit.U3Mat(th, ph, la)
		got := rzMat(ph + math.Pi).Mul(sxMat()).Mul(rzMat(th + math.Pi)).Mul(sxMat()).Mul(rzMat(la))
		if !equalUpToPhase(got, want, 1e-9) {
			t.Fatalf("ZSXZSXZ mismatch for (%.3f, %.3f, %.3f)", th, ph, la)
		}
	}
}

// TestU2Identity verifies the one-SX shortcut UnitarySynthesis uses:
// U(π/2,φ,λ) = RZ(φ+π/2)·SX·RZ(λ-π/2) up to global phase.
func TestU2Identity(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		ph := r.Float64() * 2 * math.Pi
		la := r.Float64() * 2 * math.Pi
		want := circuit.U3Mat(math.Pi/2, ph, la)
		got := rzMat(ph + math.Pi/2).Mul(sxMat()).Mul(rzMat(la - math.Pi/2))
		if !equalUpToPhase(got, want, 1e-9) {
			t.Fatalf("U2 identity mismatch for (%.3f, %.3f)", ph, la)
		}
	}
}

// TestHadamardDecomposition pins the specific H expansion used by the
// translator: H = U(π/2, 0, π).
func TestHadamardDecomposition(t *testing.T) {
	h, _ := gateMat2(circuit.NewGate(circuit.OpH, []int{0}))
	if !equalUpToPhase(circuit.U3Mat(math.Pi/2, 0, math.Pi), h, 1e-12) {
		t.Fatal("H != U(π/2, 0, π)")
	}
}

func TestZYZRoundtripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func(_ uint8) bool {
		// Build a random unitary as a product of random rotations.
		u := identity2
		ops := []circuit.Op{circuit.OpRZ, circuit.OpRX, circuit.OpRY, circuit.OpH, circuit.OpSX, circuit.OpT}
		for i := 0; i < 6; i++ {
			op := ops[r.Intn(len(ops))]
			g := circuit.Gate{Op: op, Qubits: []int{0}}
			if op.NumParams() == 1 {
				g.Params = []float64{r.Float64()*4*math.Pi - 2*math.Pi}
			}
			m, ok := gateMat2(g)
			if !ok {
				return false
			}
			u = m.Mul(u)
		}
		th, ph, la := zyzAngles(u)
		return equalUpToPhase(circuit.U3Mat(th, ph, la), u, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestZYZSpecialCases(t *testing.T) {
	// Identity.
	th, ph, la := zyzAngles(identity2)
	if math.Abs(th) > 1e-12 || math.Abs(normAngle(ph+la)) > 1e-12 {
		t.Fatalf("identity ZYZ = (%v,%v,%v)", th, ph, la)
	}
	// Pure X (θ=π, cos=0 branch).
	x, _ := gateMat2(circuit.NewGate(circuit.OpX, []int{0}))
	th, ph, la = zyzAngles(x)
	if !equalUpToPhase(circuit.U3Mat(th, ph, la), x, 1e-9) {
		t.Fatal("X roundtrip failed")
	}
	// Pure RZ (sin=0 branch).
	z := rzMat(1.3)
	th, ph, la = zyzAngles(z)
	if !equalUpToPhase(circuit.U3Mat(th, ph, la), z, 1e-9) {
		t.Fatal("RZ roundtrip failed")
	}
}

func TestIsIdentity(t *testing.T) {
	if !identity2.IsIdentity() {
		t.Fatal("identity not recognized")
	}
	// Global phase times identity is identity-equivalent only with the
	// same phase on both diagonals.
	phased := mat2{1i, 0, 0, 1i}
	if !phased.IsIdentity() {
		t.Fatal("i·I should count as identity (global phase)")
	}
	z := rzMat(math.Pi)
	if z.IsIdentity() {
		t.Fatal("RZ(π) is not identity")
	}
}

func TestNormAngle(t *testing.T) {
	if normAngle(3*math.Pi) != math.Pi {
		t.Fatalf("normAngle(3π) = %v", normAngle(3*math.Pi))
	}
	if got := normAngle(-3 * math.Pi); got != math.Pi {
		t.Fatalf("normAngle(-3π) = %v, want π", got)
	}
	if normAngle(0.5) != 0.5 {
		t.Fatal("in-range angle changed")
	}
}

func TestGateMat2Unsupported(t *testing.T) {
	if _, ok := gateMat2(circuit.NewGate(circuit.OpCX, []int{0, 1})); ok {
		t.Fatal("CX should not have a 2x2 matrix")
	}
	if _, ok := gateMat2(circuit.Gate{Op: circuit.OpMeasure, Qubits: []int{0}}); ok {
		t.Fatal("measure is not unitary")
	}
}
