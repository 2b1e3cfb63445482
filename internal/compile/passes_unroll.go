package compile

import (
	"fmt"
	"math"

	"qcloud/internal/circuit"
)

// unroll3qOrMore decomposes three-qubit gates (CCX) into the textbook
// six-CX network so downstream passes only see 1q/2q operations.
type unroll3qOrMore struct{}

// Name implements pass.
func (unroll3qOrMore) Name() string { return "Unroll3qOrMore" }

// Run implements pass.
func (unroll3qOrMore) Run(ctx *passContext) error {
	hasCCX := false
	for _, g := range ctx.Circ.Gates {
		if g.Op == circuit.OpCCX {
			hasCCX = true
			break
		}
	}
	if !hasCCX {
		return nil
	}
	out := make([]circuit.Gate, 0, len(ctx.Circ.Gates))
	g1 := func(op circuit.Op, q int) circuit.Gate {
		return circuit.Gate{Op: op, Qubits: []int{q}, Clbit: -1}
	}
	g2 := func(op circuit.Op, a, b int) circuit.Gate {
		return circuit.Gate{Op: op, Qubits: []int{a, b}, Clbit: -1}
	}
	for _, g := range ctx.Circ.Gates {
		if g.Op != circuit.OpCCX {
			out = append(out, g)
			continue
		}
		a, b, t := g.Qubits[0], g.Qubits[1], g.Qubits[2]
		out = append(out,
			g1(circuit.OpH, t),
			g2(circuit.OpCX, b, t),
			g1(circuit.OpTdg, t),
			g2(circuit.OpCX, a, t),
			g1(circuit.OpT, t),
			g2(circuit.OpCX, b, t),
			g1(circuit.OpTdg, t),
			g2(circuit.OpCX, a, t),
			g1(circuit.OpT, b),
			g1(circuit.OpT, t),
			g1(circuit.OpH, t),
			g2(circuit.OpCX, a, b),
			g1(circuit.OpT, a),
			g1(circuit.OpTdg, b),
			g2(circuit.OpCX, a, b),
		)
	}
	ctx.Circ.Gates = out
	return nil
}

// unrollCustomDefinitions validates that every op in the circuit has a
// known definition in this compiler (the Qiskit pass resolves custom
// gates; our IR has no custom gates, so the check is a guard).
type unrollCustomDefinitions struct{}

// Name implements pass.
func (unrollCustomDefinitions) Name() string { return "UnrollCustomDefinitions" }

// Run implements pass.
func (unrollCustomDefinitions) Run(ctx *passContext) error {
	for _, g := range ctx.Circ.Gates {
		switch g.Op {
		case circuit.OpI, circuit.OpX, circuit.OpY, circuit.OpZ, circuit.OpH,
			circuit.OpS, circuit.OpSdg, circuit.OpT, circuit.OpTdg, circuit.OpSX,
			circuit.OpRX, circuit.OpRY, circuit.OpRZ, circuit.OpU,
			circuit.OpCX, circuit.OpCZ, circuit.OpCPhase, circuit.OpSWAP,
			circuit.OpCCX, circuit.OpMeasure, circuit.OpReset, circuit.OpBarrier:
		default:
			return fmt.Errorf("unknown op %v", g.Op)
		}
	}
	return nil
}

// basisTranslator rewrites every gate into the IBM hardware basis
// {rz, sx, x, cx} (plus measure/reset/barrier), iterating until no
// non-basis op remains.
type basisTranslator struct{}

// Name implements pass.
func (basisTranslator) Name() string { return "BasisTranslator" }

// inBasis reports whether op needs no further translation.
func inBasis(op circuit.Op) bool {
	switch op {
	case circuit.OpRZ, circuit.OpSX, circuit.OpX, circuit.OpCX,
		circuit.OpMeasure, circuit.OpReset, circuit.OpBarrier:
		return true
	default:
		return false
	}
}

// Run implements pass.
func (basisTranslator) Run(ctx *passContext) error {
	for round := 0; round < 4; round++ {
		done := true
		for _, g := range ctx.Circ.Gates {
			if !inBasis(g.Op) {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		out := make([]circuit.Gate, 0, len(ctx.Circ.Gates)*2)
		for _, g := range ctx.Circ.Gates {
			out = translateGate(out, g)
		}
		ctx.Circ.Gates = out
	}
	for _, g := range ctx.Circ.Gates {
		if !inBasis(g.Op) {
			return fmt.Errorf("op %v not translatable to basis", g.Op)
		}
	}
	return nil
}

// translateGate appends the basis expansion of g to out. Expansions are
// exact up to global phase.
func translateGate(out []circuit.Gate, g circuit.Gate) []circuit.Gate {
	rz := func(q int, th float64) circuit.Gate {
		return circuit.Gate{Op: circuit.OpRZ, Qubits: []int{q}, Params: []float64{th}, Clbit: -1}
	}
	sx := func(q int) circuit.Gate {
		return circuit.Gate{Op: circuit.OpSX, Qubits: []int{q}, Clbit: -1}
	}
	cx := func(a, b int) circuit.Gate {
		return circuit.Gate{Op: circuit.OpCX, Qubits: []int{a, b}, Clbit: -1}
	}
	// emitU3 appends U(θ,φ,λ) as rz(λ)·sx·rz(θ+π)·sx·rz(φ+π), Qiskit's
	// ZSXZSXZ identity (first-listed gate applies first).
	emitU3 := func(q int, theta, phi, lambda float64) {
		out = append(out, rz(q, lambda), sx(q), rz(q, theta+math.Pi), sx(q), rz(q, phi+math.Pi))
	}
	q := g.Qubits
	switch g.Op {
	case circuit.OpI:
		// dropped
	case circuit.OpX, circuit.OpSX, circuit.OpRZ, circuit.OpCX,
		circuit.OpMeasure, circuit.OpReset, circuit.OpBarrier:
		out = append(out, g)
	case circuit.OpY:
		// Y = X·Z up to global phase.
		out = append(out, rz(q[0], math.Pi), circuit.Gate{Op: circuit.OpX, Qubits: []int{q[0]}, Clbit: -1})
	case circuit.OpZ:
		out = append(out, rz(q[0], math.Pi))
	case circuit.OpS:
		out = append(out, rz(q[0], math.Pi/2))
	case circuit.OpSdg:
		out = append(out, rz(q[0], -math.Pi/2))
	case circuit.OpT:
		out = append(out, rz(q[0], math.Pi/4))
	case circuit.OpTdg:
		out = append(out, rz(q[0], -math.Pi/4))
	case circuit.OpH:
		// H = U(π/2, 0, π): rz(π) sx rz(3π/2)·... via emitU3.
		emitU3(q[0], math.Pi/2, 0, math.Pi)
	case circuit.OpRX:
		emitU3(q[0], g.Params[0], -math.Pi/2, math.Pi/2)
	case circuit.OpRY:
		emitU3(q[0], g.Params[0], 0, 0)
	case circuit.OpU:
		emitU3(q[0], g.Params[0], g.Params[1], g.Params[2])
	case circuit.OpCZ:
		// CZ = (I⊗H)·CX·(I⊗H).
		emitU3(q[1], math.Pi/2, 0, math.Pi)
		out = append(out, cx(q[0], q[1]))
		emitU3(q[1], math.Pi/2, 0, math.Pi)
	case circuit.OpCPhase:
		th := g.Params[0]
		out = append(out,
			rz(q[0], th/2),
			cx(q[0], q[1]),
			rz(q[1], -th/2),
			cx(q[0], q[1]),
			rz(q[1], th/2),
		)
	case circuit.OpSWAP:
		out = append(out, cx(q[0], q[1]), cx(q[1], q[0]), cx(q[0], q[1]))
	case circuit.OpCCX:
		// Normally handled by Unroll3qOrMore; expand via that identity
		// by reusing the single-gate path: decompose to H/T/CX first.
		tmp := &unroll3qOrMore{}
		cc := &circuit.Circuit{NQubits: maxQubit(g.Qubits) + 1, Gates: []circuit.Gate{g}}
		cctx := &passContext{Circ: cc}
		_ = tmp.Run(cctx)
		for _, sub := range cc.Gates {
			out = translateGate(out, sub)
		}
	}
	return out
}

func maxQubit(qs []int) int {
	m := 0
	for _, q := range qs {
		if q > m {
			m = q
		}
	}
	return m
}
