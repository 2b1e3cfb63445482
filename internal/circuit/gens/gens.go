// Package gens builds the benchmark circuits used throughout the
// reproduction: QFT (the paper's compile-time and fidelity workload),
// GHZ, Bernstein-Vazirani, QAOA and hardware-efficient ansatz circuits,
// a ripple-carry adder, and seeded random circuits for workload
// synthesis.
package gens

import (
	"fmt"
	"math"
	"math/rand"

	"qcloud/internal/circuit"
)

// QFT returns the n-qubit Quantum Fourier Transform, built from H and
// controlled-phase gates with the standard final qubit-reversal SWAPs.
// This is the workload of the paper's Fig 5 (64q and 980q compile
// timing) and Fig 7 (4q fidelity study).
func QFT(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("qft%d", n), n)
	qftBody(c, n)
	c.MeasureAll()
	return c
}

// qftBody appends the QFT gate network over qubits 0..n-1.
func qftBody(c *circuit.Circuit, n int) {
	for i := 0; i < n; i++ {
		c.H(i)
		for j := i + 1; j < n; j++ {
			c.CPhase(j, i, math.Pi/math.Pow(2, float64(j-i)))
		}
	}
	for i := 0; i < n/2; i++ {
		c.SWAP(i, n-1-i)
	}
}

// QFTBench returns the deterministic QFT fidelity benchmark: prepare
// the uniform superposition with a Hadamard layer, apply QFT, measure.
// Ideally every shot returns the all-zeros bitstring (the QFT of the
// uniform superposition is |0...0>), so the probability of success is
// directly the frequency of "00...0" — the POS protocol of Fig 7.
func QFTBench(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("qftbench%d", n), n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	qftBody(c, n)
	c.MeasureAll()
	return c
}

// GHZ returns the n-qubit GHZ state preparation: H on qubit 0 followed
// by a CX chain.
func GHZ(n int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("ghz%d", n), n)
	if n == 0 {
		return c
	}
	c.H(0)
	for i := 1; i < n; i++ {
		c.CX(i-1, i)
	}
	c.MeasureAll()
	return c
}

// BernsteinVazirani returns the BV circuit for an n-bit secret string.
// Bit i of secret selects whether a CX from data qubit i to the ancilla
// (qubit n) appears. The circuit has n+1 qubits.
func BernsteinVazirani(n int, secret uint64) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("bv%d", n), n+1)
	c.NClbits = n // only the data register is measured
	anc := n
	c.X(anc)
	for i := 0; i <= n; i++ {
		c.H(i)
	}
	for i := 0; i < n; i++ {
		if secret&(1<<uint(i)) != 0 {
			c.CX(i, anc)
		}
	}
	for i := 0; i < n; i++ {
		c.H(i)
		c.Measure(i, i)
	}
	return c
}

// Edge is an undirected graph edge for QAOA problem instances.
type Edge struct{ A, B int }

// QAOAMaxCut returns a p-layer QAOA MaxCut circuit over n qubits with
// the given problem edges. Gamma/beta angles are fixed representative
// values; the structure (RZZ via CX-RZ-CX, then RX mixers) is what
// matters for compilation and execution studies.
func QAOAMaxCut(n int, edges []Edge, layers int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("qaoa%d_p%d", n, layers), n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for l := 0; l < layers; l++ {
		gamma := 0.7 / float64(l+1)
		beta := 0.4 * float64(l+1)
		for _, e := range edges {
			c.CX(e.A, e.B)
			c.RZ(e.B, 2*gamma)
			c.CX(e.A, e.B)
		}
		for q := 0; q < n; q++ {
			c.RX(q, 2*beta)
		}
	}
	c.MeasureAll()
	return c
}

// RingEdges returns the edge list of an n-cycle, a standard QAOA
// benchmark topology.
func RingEdges(n int) []Edge {
	edges := make([]Edge, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{i, (i + 1) % n})
	}
	return edges
}

// HardwareEfficientAnsatz returns a VQE-style ansatz: layers of RY+RZ
// rotations followed by a linear CX entangling ladder. Angles are drawn
// from r so distinct instances differ, as parameterized jobs do in the
// trace.
func HardwareEfficientAnsatz(r *rand.Rand, n, layers int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("vqe%d_l%d", n, layers), n)
	for l := 0; l < layers; l++ {
		for q := 0; q < n; q++ {
			c.RY(q, r.Float64()*2*math.Pi)
			c.RZ(q, r.Float64()*2*math.Pi)
		}
		for q := 0; q+1 < n; q++ {
			c.CX(q, q+1)
		}
	}
	for q := 0; q < n; q++ {
		c.RY(q, r.Float64()*2*math.Pi)
	}
	c.MeasureAll()
	return c
}

// RippleCarryAdder returns a CDKM-style ripple-carry adder over two
// nBits-wide registers plus carry qubits: 2*nBits+2 qubits total. The
// MAJ/UMA blocks use CCX gates, exercising three-qubit decomposition in
// the compiler.
func RippleCarryAdder(nBits int) *circuit.Circuit {
	n := 2*nBits + 2
	c := circuit.New(fmt.Sprintf("adder%d", nBits), n)
	// Register layout: a[i] = i, b[i] = nBits+i, carryIn = 2*nBits,
	// carryOut = 2*nBits+1.
	a := func(i int) int { return i }
	b := func(i int) int { return nBits + i }
	cin := 2 * nBits
	cout := 2*nBits + 1

	maj := func(x, y, z int) {
		c.CX(z, y)
		c.CX(z, x)
		c.CCX(x, y, z)
	}
	uma := func(x, y, z int) {
		c.CCX(x, y, z)
		c.CX(z, x)
		c.CX(x, y)
	}

	maj(cin, b(0), a(0))
	for i := 1; i < nBits; i++ {
		maj(a(i-1), b(i), a(i))
	}
	c.CX(a(nBits-1), cout)
	for i := nBits - 1; i >= 1; i-- {
		uma(a(i-1), b(i), a(i))
	}
	uma(cin, b(0), a(0))
	c.MeasureAll()
	return c
}

// Random returns a seeded random circuit of the given width and target
// all-gate depth; twoQubitFrac controls the fraction of layers' slots
// filled with CX gates. Random circuits stand in for the long tail of
// user programs in the synthetic workload.
func Random(r *rand.Rand, n, depth int, twoQubitFrac float64) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("rand%dx%d", n, depth), n)
	oneQ := []circuit.Op{circuit.OpH, circuit.OpX, circuit.OpT, circuit.OpS, circuit.OpSX}
	for d := 0; d < depth; d++ {
		perm := r.Perm(n)
		i := 0
		for i < n {
			if i+1 < n && r.Float64() < twoQubitFrac {
				c.CX(perm[i], perm[i+1])
				i += 2
				continue
			}
			op := oneQ[r.Intn(len(oneQ))]
			switch op {
			case circuit.OpH:
				c.H(perm[i])
			case circuit.OpX:
				c.X(perm[i])
			case circuit.OpT:
				c.T(perm[i])
			case circuit.OpS:
				c.S(perm[i])
			default:
				c.SX(perm[i])
			}
			i++
		}
	}
	c.MeasureAll()
	return c
}

// Grover returns a Grover-search circuit over n in {2,3} qubits that
// amplifies the marked basis state (given as bits of marked, qubit 0 =
// bit 0). Two qubits need one iteration (exact); three need two
// (P(success) ~ 0.945). Oracles and diffusion are built from H/X/CZ and
// CCZ (via H-conjugated CCX), exercising the 3q decomposition path.
func Grover(n int, marked uint64) *circuit.Circuit {
	if n < 2 || n > 3 {
		panic(fmt.Sprintf("gens: Grover supports 2 or 3 qubits, got %d", n))
	}
	c := circuit.New(fmt.Sprintf("grover%d", n), n)
	iterations := 1
	if n == 3 {
		iterations = 2
	}
	flipUnmarked := func() {
		for q := 0; q < n; q++ {
			if marked&(1<<uint(q)) == 0 {
				c.X(q)
			}
		}
	}
	controlledZAll := func() {
		if n == 2 {
			c.CZ(0, 1)
			return
		}
		// CCZ = H(2) CCX(0,1,2) H(2).
		c.H(2)
		c.CCX(0, 1, 2)
		c.H(2)
	}
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for it := 0; it < iterations; it++ {
		// Oracle: phase-flip the marked state.
		flipUnmarked()
		controlledZAll()
		flipUnmarked()
		// Diffusion: inversion about the mean.
		for q := 0; q < n; q++ {
			c.H(q)
			c.X(q)
		}
		controlledZAll()
		for q := 0; q < n; q++ {
			c.X(q)
			c.H(q)
		}
	}
	c.MeasureAll()
	return c
}

// WState prepares the n-qubit W state (equal superposition of all
// single-excitation basis states) with the cascade of controlled
// rotations decomposed into RY/CX/X, then measures. Each outcome is a
// one-hot bitstring with probability 1/n.
func WState(n int) *circuit.Circuit {
	if n < 1 {
		panic("gens: WState needs n >= 1")
	}
	c := circuit.New(fmt.Sprintf("w%d", n), n)
	if n == 1 {
		c.X(0).MeasureAll()
		return c
	}
	// Cascade: qubit 0 carries the excitation, and at step k we move a
	// 1/(n-k) share of it onto qubit k via a controlled rotation
	// CRY(theta) = RY(theta/2) CX RY(-theta/2) CX, then a CX copies the
	// remaining control forward.
	c.X(0)
	for k := 1; k < n; k++ {
		remaining := float64(n - k + 1)
		theta := 2 * math.Acos(math.Sqrt(1/remaining))
		// CRY(theta) with control k-1, target k.
		c.RY(k, theta/2)
		c.CX(k-1, k)
		c.RY(k, -theta/2)
		c.CX(k-1, k)
		// Move the excitation: if qubit k took it, clear qubit k-1.
		c.CX(k, k-1)
	}
	c.MeasureAll()
	return c
}

// Teleport returns the coherent (deferred-measurement) quantum
// teleportation verification circuit: an arbitrary state RY(theta) ·
// RZ(phi)|0> is prepared on qubit 0, teleported onto qubit 2 through a
// Bell pair with coherent CX/CZ corrections, and un-prepared on qubit
// 2. Every shot ideally measures qubit 2 as 0, so P(q2=0) is the
// teleportation fidelity.
func Teleport(theta, phi float64) *circuit.Circuit {
	c := circuit.New("teleport", 3)
	c.NClbits = 1
	// Prepare the payload state.
	c.RY(0, theta)
	c.RZ(0, phi)
	// Bell pair between qubits 1 and 2.
	c.H(1)
	c.CX(1, 2)
	// Bell measurement basis change on 0-1, corrections deferred.
	c.CX(0, 1)
	c.H(0)
	c.CX(1, 2)
	c.CZ(0, 2)
	// Un-prepare on the destination and verify.
	c.RZ(2, -phi)
	c.RY(2, -theta)
	c.Measure(2, 0)
	return c
}
