package compile

import (
	"math"

	"qcloud/internal/circuit"
)

// depth records the circuit's current critical-path depth in the
// property set; the fixed-point loop uses it to detect convergence.
type depth struct{}

// Name implements pass.
func (depth) Name() string { return "Depth" }

// Run implements pass.
func (depth) Run(ctx *passContext) error {
	ctx.Props["depth"] = ctx.Circ.Depth()
	return nil
}

// fixedPoint records whether depth and size changed since its previous
// invocation, mirroring Qiskit's FixedPoint controller predicate.
type fixedPoint struct{}

// Name implements pass.
func (fixedPoint) Name() string { return "FixedPoint" }

// Run implements pass.
func (fixedPoint) Run(ctx *passContext) error {
	d, s := ctx.Props["depth"], len(ctx.Circ.Gates)
	if d == ctx.Props["fp_prev_depth"] && s == ctx.Props["fp_prev_size"] {
		ctx.Props["fixed_point"] = 1
	} else {
		ctx.Props["fixed_point"] = 0
	}
	ctx.Props["fp_prev_depth"], ctx.Props["fp_prev_size"] = d, s
	return nil
}

// collect2qBlocks counts maximal runs of consecutive gates confined to
// a single qubit pair (containing at least one two-qubit gate) and
// stores the count; ConsolidateBlocks uses the same scan to rewrite.
type collect2qBlocks struct{}

// Name implements pass.
func (collect2qBlocks) Name() string { return "Collect2qBlocks" }

// Run implements pass.
func (collect2qBlocks) Run(ctx *passContext) error {
	blocks := 0
	lastPair := [2]int{-1, -1}
	inBlock := false
	for _, g := range ctx.Circ.Gates {
		if g.Op.IsTwoQubit() {
			a, b := g.Qubits[0], g.Qubits[1]
			if a > b {
				a, b = b, a
			}
			pair := [2]int{a, b}
			if !inBlock || pair != lastPair {
				blocks++
				lastPair = pair
				inBlock = true
			}
			continue
		}
		if g.Op == circuit.OpBarrier || g.Op == circuit.OpMeasure || g.Op == circuit.OpReset {
			inBlock = false
		}
	}
	ctx.Props["blocks_2q"] = blocks
	return nil
}

// consolidateBlocks merges maximal runs of consecutive single-qubit
// unitaries on each qubit into one U gate (2x2 matrix product + ZYZ
// extraction). Identity products are dropped entirely.
type consolidateBlocks struct{}

// Name implements pass.
func (consolidateBlocks) Name() string { return "ConsolidateBlocks" }

// Run implements pass.
func (consolidateBlocks) Run(ctx *passContext) error {
	gates := ctx.Circ.Gates
	out := make([]circuit.Gate, 0, len(gates))
	// Pending accumulated 1q unitary per qubit.
	type acc struct {
		m     mat2
		count int
	}
	pend := make(map[int]*acc)
	flush := func(q int) {
		a, ok := pend[q]
		if !ok {
			return
		}
		delete(pend, q)
		if a.m.IsIdentity() {
			return
		}
		theta, phi, lambda := zyzAngles(a.m)
		out = append(out, circuit.Gate{
			Op: circuit.OpU, Qubits: []int{q},
			Params: []float64{theta, phi, lambda}, Clbit: -1,
		})
	}
	for _, g := range gates {
		if len(g.Qubits) == 1 && g.Op.IsUnitary() {
			if m, ok := gateMat2(g); ok {
				q := g.Qubits[0]
				a, exists := pend[q]
				if !exists {
					a = &acc{m: identity2}
					pend[q] = a
				}
				a.m = m.Mul(a.m) // later gate multiplies on the left
				a.count++
				continue
			}
		}
		for _, q := range g.Qubits {
			flush(q)
		}
		out = append(out, g)
	}
	// Final flush: leftover rotations belong before the trailing
	// measurement/barrier suffix so the circuit keeps its terminal-
	// measure form (they can only involve unmeasured qubits, or they
	// would have been flushed by the measure).
	suffix := len(out)
	for suffix > 0 {
		op := out[suffix-1].Op
		if op != circuit.OpMeasure && op != circuit.OpBarrier {
			break
		}
		suffix--
	}
	tail := append([]circuit.Gate(nil), out[suffix:]...)
	out = out[:suffix]
	for q := 0; q < ctx.Circ.NQubits; q++ {
		flush(q)
	}
	out = append(out, tail...)
	ctx.Circ.Gates = out
	return nil
}

// unitarySynthesis lowers U gates into the hardware basis: a pure-Z
// rotation becomes a single rz; anything else becomes the ZSXZSXZ
// five-gate sequence.
type unitarySynthesis struct{}

// Name implements pass.
func (unitarySynthesis) Name() string { return "UnitarySynthesis" }

// Run implements pass.
func (unitarySynthesis) Run(ctx *passContext) error {
	hasU := false
	for _, g := range ctx.Circ.Gates {
		if g.Op == circuit.OpU {
			hasU = true
			break
		}
	}
	if !hasU {
		return nil
	}
	out := make([]circuit.Gate, 0, len(ctx.Circ.Gates))
	rz := func(q int, th float64) circuit.Gate {
		return circuit.Gate{Op: circuit.OpRZ, Qubits: []int{q}, Params: []float64{th}, Clbit: -1}
	}
	sx := func(q int) circuit.Gate {
		return circuit.Gate{Op: circuit.OpSX, Qubits: []int{q}, Clbit: -1}
	}
	const eps = 1e-9
	for _, g := range ctx.Circ.Gates {
		if g.Op != circuit.OpU {
			out = append(out, g)
			continue
		}
		q := g.Qubits[0]
		theta, phi, lambda := g.Params[0], g.Params[1], g.Params[2]
		switch {
		case math.Abs(theta) < eps:
			if a := normAngle(phi + lambda); math.Abs(a) > eps {
				out = append(out, rz(q, a))
			}
		case math.Abs(theta-math.Pi/2) < eps:
			// U(π/2,φ,λ) = rz(λ-π/2)·sx·rz(φ+π/2): one sx suffices.
			if a := normAngle(lambda - math.Pi/2); math.Abs(a) > eps {
				out = append(out, rz(q, a))
			}
			out = append(out, sx(q))
			if a := normAngle(phi + math.Pi/2); math.Abs(a) > eps {
				out = append(out, rz(q, a))
			}
		default:
			out = append(out, rz(q, lambda), sx(q), rz(q, theta+math.Pi), sx(q), rz(q, phi+math.Pi))
		}
	}
	ctx.Circ.Gates = out
	return nil
}

// optimize1qGates merges adjacent rz rotations, drops zero rotations,
// and cancels adjacent self-inverse pairs (x·x, h·h) — the cheap
// peephole layer under the full resynthesis of ConsolidateBlocks.
type optimize1qGates struct{}

// Name implements pass.
func (optimize1qGates) Name() string { return "Optimize1qGates" }

// Run implements pass.
func (optimize1qGates) Run(ctx *passContext) error {
	gates := ctx.Circ.Gates
	out := make([]circuit.Gate, 0, len(gates))
	last := make(map[int]int) // qubit -> index in out of last gate touching it
	const eps = 1e-10
	touch := func(g circuit.Gate, idx int) {
		for _, q := range g.Qubits {
			last[q] = idx
		}
	}
	for _, g := range gates {
		if len(g.Qubits) == 1 {
			q := g.Qubits[0]
			if li, ok := last[q]; ok && li >= 0 && li < len(out) {
				prev := &out[li]
				if prev.Op == circuit.OpRZ && g.Op == circuit.OpRZ && len(prev.Qubits) == 1 {
					a := normAngle(prev.Params[0] + g.Params[0])
					if math.Abs(a) < eps {
						// Net identity: remove the previous rz entirely.
						out = append(out[:li], out[li+1:]...)
						rebuildLast(out, last)
						continue
					}
					prev.Params = []float64{a}
					continue
				}
				selfInverse := (g.Op == circuit.OpX || g.Op == circuit.OpH) && prev.Op == g.Op && len(prev.Qubits) == 1
				if selfInverse {
					out = append(out[:li], out[li+1:]...)
					rebuildLast(out, last)
					continue
				}
			}
			if g.Op == circuit.OpRZ && math.Abs(normAngle(g.Params[0])) < eps {
				continue // rz(0)
			}
			if g.Op == circuit.OpI {
				continue
			}
		}
		out = append(out, g)
		touch(g, len(out)-1)
	}
	ctx.Circ.Gates = out
	return nil
}

// rebuildLast recomputes the last-touch index map after a splice.
func rebuildLast(out []circuit.Gate, last map[int]int) {
	for k := range last {
		delete(last, k)
	}
	for i, g := range out {
		for _, q := range g.Qubits {
			last[q] = i
		}
	}
}

// commutationAnalysis counts commuting adjacent gate pairs per qubit
// wire; CommutativeCancellation consumes the same relations to cancel.
type commutationAnalysis struct{}

// Name implements pass.
func (commutationAnalysis) Name() string { return "CommutationAnalysis" }

// Run implements pass.
func (commutationAnalysis) Run(ctx *passContext) error {
	lastOnWire := make(map[int]circuit.Gate)
	commuting := 0
	for _, g := range ctx.Circ.Gates {
		for _, q := range g.Qubits {
			if prev, ok := lastOnWire[q]; ok && gatesCommuteOnWire(prev, g, q) {
				commuting++
			}
			lastOnWire[q] = g
		}
	}
	ctx.Props["commuting_pairs"] = commuting
	return nil
}

// gatesCommuteOnWire reports whether a and b commute when restricted to
// wire q, using the Z-diagonal / X-family classification.
func gatesCommuteOnWire(a, b circuit.Gate, q int) bool {
	return (diagonalOnWire(a, q) && diagonalOnWire(b, q)) ||
		(xFamilyOnWire(a, q) && xFamilyOnWire(b, q))
}

// diagonalOnWire reports whether g acts Z-diagonally on wire q (so it
// commutes with a CX control and with other diagonals).
func diagonalOnWire(g circuit.Gate, q int) bool {
	switch g.Op {
	case circuit.OpRZ, circuit.OpZ, circuit.OpS, circuit.OpSdg, circuit.OpT, circuit.OpTdg, circuit.OpCPhase, circuit.OpCZ:
		return true
	case circuit.OpCX:
		return g.Qubits[0] == q // control side acts diagonally
	default:
		return false
	}
}

// xFamilyOnWire reports whether g acts as an X-axis rotation on wire q
// (so it commutes with a CX target).
func xFamilyOnWire(g circuit.Gate, q int) bool {
	switch g.Op {
	case circuit.OpX, circuit.OpSX, circuit.OpRX:
		return true
	case circuit.OpCX:
		return g.Qubits[1] == q // target side acts as X
	default:
		return false
	}
}

// commutativeCancellation cancels CX pairs with identical control and
// target that are separated only by gates commuting through the control
// (Z-diagonal) or the target (X-family).
type commutativeCancellation struct{}

// Name implements pass.
func (commutativeCancellation) Name() string { return "CommutativeCancellation" }

// Run implements pass.
func (commutativeCancellation) Run(ctx *passContext) error {
	gates := ctx.Circ.Gates
	keep := make([]bool, len(gates))
	for i := range keep {
		keep[i] = true
	}
	// pending[pair] = index of an open CX waiting for its twin. The
	// per-qubit index keeps invalidation O(1) amortized instead of
	// scanning every open pair per gate.
	pending := make(map[[2]int]int)
	byQubit := make(map[int][][2]int)
	invalidate := func(q int) {
		for _, pair := range byQubit[q] {
			delete(pending, pair)
		}
		byQubit[q] = byQubit[q][:0]
	}
	for i, g := range gates {
		if g.Op == circuit.OpCX {
			pair := [2]int{g.Qubits[0], g.Qubits[1]}
			if j, ok := pending[pair]; ok {
				keep[i], keep[j] = false, false
				delete(pending, pair)
				continue
			}
			// A CX invalidates pendings that share either qubit in a
			// non-commuting role; a CX on the same qubits in swapped
			// orientation blocks, as does any overlap.
			invalidate(g.Qubits[0])
			invalidate(g.Qubits[1])
			pending[pair] = i
			byQubit[pair[0]] = append(byQubit[pair[0]], pair)
			byQubit[pair[1]] = append(byQubit[pair[1]], pair)
			continue
		}
		if len(g.Qubits) == 1 {
			q := g.Qubits[0]
			blocked := false
			open := byQubit[q][:0] // prune pairs cancelled meanwhile
			for _, pair := range byQubit[q] {
				if _, ok := pending[pair]; !ok {
					continue
				}
				open = append(open, pair)
				if pair[0] == q && !diagonalOnWire(g, q) {
					blocked = true
				}
				if pair[1] == q && !xFamilyOnWire(g, q) {
					blocked = true
				}
			}
			byQubit[q] = open
			if blocked {
				invalidate(q)
			}
			continue
		}
		for _, q := range g.Qubits {
			invalidate(q)
		}
	}
	out := make([]circuit.Gate, 0, len(gates))
	removed := 0
	for i, g := range gates {
		if keep[i] {
			out = append(out, g)
		} else {
			removed++
		}
	}
	ctx.Props["cancelled_cx"] = removed
	ctx.Circ.Gates = out
	return nil
}

// removeDiagonalGatesBeforeMeasure drops Z-diagonal gates whose only
// effect precedes a computational-basis measurement, where they cannot
// change outcome statistics.
type removeDiagonalGatesBeforeMeasure struct{}

// Name implements pass.
func (removeDiagonalGatesBeforeMeasure) Name() string { return "RemoveDiagonalGatesBeforeMeasure" }

// Run implements pass.
func (removeDiagonalGatesBeforeMeasure) Run(ctx *passContext) error {
	gates := ctx.Circ.Gates
	// nextIsMeasure[q] true while scanning backwards and the next thing
	// on q's wire is a measurement.
	nextIsMeasure := make([]bool, ctx.Circ.NQubits)
	keep := make([]bool, len(gates))
	for i := len(gates) - 1; i >= 0; i-- {
		g := gates[i]
		keep[i] = true
		switch {
		case g.Op == circuit.OpMeasure:
			nextIsMeasure[g.Qubits[0]] = true
		case g.Op == circuit.OpBarrier:
			// Barriers don't change outcomes; scan through them.
		case len(g.Qubits) == 1 && diagonalOnWire(g, g.Qubits[0]):
			if nextIsMeasure[g.Qubits[0]] {
				keep[i] = false
			}
		default:
			for _, q := range g.Qubits {
				nextIsMeasure[q] = false
			}
		}
	}
	out := make([]circuit.Gate, 0, len(gates))
	for i, g := range gates {
		if keep[i] {
			out = append(out, g)
		}
	}
	ctx.Circ.Gates = out
	return nil
}

// removeResetInZeroState deletes reset instructions on qubits that are
// still in their initial |0> state.
type removeResetInZeroState struct{}

// Name implements pass.
func (removeResetInZeroState) Name() string { return "RemoveResetInZeroState" }

// Run implements pass.
func (removeResetInZeroState) Run(ctx *passContext) error {
	touched := make([]bool, ctx.Circ.NQubits)
	out := make([]circuit.Gate, 0, len(ctx.Circ.Gates))
	for _, g := range ctx.Circ.Gates {
		if g.Op == circuit.OpReset && !touched[g.Qubits[0]] {
			continue // reset of |0> is a no-op
		}
		if g.Op != circuit.OpBarrier {
			for _, q := range g.Qubits {
				touched[q] = true
			}
		}
		out = append(out, g)
	}
	ctx.Circ.Gates = out
	return nil
}

// barrierBeforeFinalMeasurements inserts a barrier separating the final
// measurement layer from the computation, as hardware backends require.
type barrierBeforeFinalMeasurements struct{}

// Name implements pass.
func (barrierBeforeFinalMeasurements) Name() string { return "BarrierBeforeFinalMeasurements" }

// Run implements pass.
func (barrierBeforeFinalMeasurements) Run(ctx *passContext) error {
	gates := ctx.Circ.Gates
	// Find the suffix consisting only of measurements/barriers.
	split := len(gates)
	for split > 0 {
		op := gates[split-1].Op
		if op == circuit.OpMeasure || op == circuit.OpBarrier {
			split--
		} else {
			break
		}
	}
	if split == len(gates) {
		return nil // no final measurement layer
	}
	measured := make(map[int]bool)
	hasMeasure := false
	for _, g := range gates[split:] {
		if g.Op == circuit.OpMeasure {
			measured[g.Qubits[0]] = true
			hasMeasure = true
		}
	}
	if !hasMeasure {
		return nil
	}
	qs := make([]int, 0, len(measured))
	for q := range measured {
		qs = append(qs, q)
	}
	sortInts(qs)
	out := make([]circuit.Gate, 0, len(gates)+1)
	out = append(out, gates[:split]...)
	out = append(out, circuit.Gate{Op: circuit.OpBarrier, Qubits: qs, Clbit: -1})
	for _, g := range gates[split:] {
		if g.Op != circuit.OpBarrier {
			out = append(out, g)
		}
	}
	ctx.Circ.Gates = out
	return nil
}

// sortInts is a tiny insertion sort to avoid importing sort for one
// call site in the hot path.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
