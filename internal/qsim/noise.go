package qsim

import (
	"math/rand"

	"qcloud/internal/backend"
	"qcloud/internal/circuit"
)

// NoiseModel supplies per-qubit and per-coupler error probabilities for
// Monte-Carlo trajectory simulation. Indices refer to the qubit labels
// of the circuit being run (use Remap after Compact).
type NoiseModel struct {
	// OneQubit returns the depolarizing probability after a 1q gate.
	OneQubit func(q int) float64
	// TwoQubit returns the depolarizing probability after a 2q gate.
	TwoQubit func(a, b int) float64
	// Readout returns the bit-flip probability at measurement.
	Readout func(q int) float64
}

// ReadoutError returns the readout flip probability for qubit q
// (0 when no readout model is set).
func (n *NoiseModel) ReadoutError(q int) float64 {
	if n == nil || n.Readout == nil {
		return 0
	}
	return n.Readout(q)
}

// applyAfterGate injects a random Pauli error after gate g with the
// modeled probability. It is the reference semantics of the noise
// channel: the fused executor reproduces exactly this draw sequence and
// Pauli placement from precomputed per-gate probabilities (see fuse.go
// and the equivalence tests), so the per-shot hot path never calls the
// model closures or rebuilds Pauli matrices.
//
//qcloud:keep the noise channel's reference: referenceTrajectories (fuse_test.go) holds the fused draws to it
func (n *NoiseModel) applyAfterGate(st *State, g circuit.Gate, r *rand.Rand) {
	var p float64
	switch {
	case g.Op.IsTwoQubit() && n.TwoQubit != nil:
		p = n.TwoQubit(g.Qubits[0], g.Qubits[1])
	case len(g.Qubits) == 1 && n.OneQubit != nil:
		p = n.OneQubit(g.Qubits[0])
	}
	if p <= 0 || r.Float64() >= p {
		return
	}
	// Uniform non-identity Pauli on a random operand qubit; for 2q
	// errors this is the standard local-depolarizing approximation.
	q := g.Qubits[r.Intn(len(g.Qubits))]
	switch r.Intn(3) {
	case 0:
		m, _ := circuit.GateMat2(circuit.Gate{Op: circuit.OpX, Qubits: []int{q}})
		st.Apply1Q(m, q)
	case 1:
		m, _ := circuit.GateMat2(circuit.Gate{Op: circuit.OpY, Qubits: []int{q}})
		st.Apply1Q(m, q)
	default:
		m, _ := circuit.GateMat2(circuit.Gate{Op: circuit.OpZ, Qubits: []int{q}})
		st.Apply1Q(m, q)
	}
}

// UniformNoise returns a NoiseModel with flat error rates.
func UniformNoise(oneQ, twoQ, readout float64) *NoiseModel {
	return &NoiseModel{
		OneQubit: func(int) float64 { return oneQ },
		TwoQubit: func(int, int) float64 { return twoQ },
		Readout:  func(int) float64 { return readout },
	}
}

// NoiseFromCalibration builds a NoiseModel from a machine calibration
// snapshot, with staleHours of drift applied to coupler errors — the
// mechanism behind the paper's calibration-crossover fidelity loss
// (Fig 12).
func NoiseFromCalibration(cal *backend.Calibration, staleHours float64) *NoiseModel {
	return &NoiseModel{
		OneQubit: func(q int) float64 {
			if q < len(cal.Err1Q) {
				return cal.Err1Q[q]
			}
			return 0
		},
		TwoQubit: func(a, b int) float64 {
			return backend.DriftedCXError(cal, a, b, staleHours, cal.MeanCXError())
		},
		Readout: func(q int) float64 {
			if q < len(cal.ErrRO) {
				return cal.ErrRO[q]
			}
			return 0
		},
	}
}

// Remap returns a NoiseModel whose indices are the compacted labels
// produced by Compact: origOf[new] = original physical index.
func (n *NoiseModel) Remap(origOf []int) *NoiseModel {
	if n == nil {
		return nil
	}
	orig := func(q int) int {
		if q < len(origOf) {
			return origOf[q]
		}
		return q
	}
	out := &NoiseModel{}
	if n.OneQubit != nil {
		f := n.OneQubit
		out.OneQubit = func(q int) float64 { return f(orig(q)) }
	}
	if n.TwoQubit != nil {
		f := n.TwoQubit
		out.TwoQubit = func(a, b int) float64 { return f(orig(a), orig(b)) }
	}
	if n.Readout != nil {
		f := n.Readout
		out.Readout = func(q int) float64 { return f(orig(q)) }
	}
	return out
}

// Compact relabels the circuit's touched qubits densely to 0..k-1 so a
// machine-wide compiled circuit (e.g. 65 physical qubits, 4 used) fits
// the dense simulator. It returns the compacted circuit and origOf,
// where origOf[new] = original index. Barrier operands on untouched
// qubits are dropped.
func Compact(c *circuit.Circuit) (*circuit.Circuit, []int) {
	newIdx := make(map[int]int)
	var origOf []int
	for _, g := range c.Gates {
		if g.Op == circuit.OpBarrier {
			continue
		}
		for _, q := range g.Qubits {
			if _, ok := newIdx[q]; !ok {
				newIdx[q] = len(origOf)
				origOf = append(origOf, q)
			}
		}
	}
	out := &circuit.Circuit{Name: c.Name, NQubits: len(origOf), NClbits: c.NClbits}
	if out.NQubits == 0 {
		out.NQubits = 1 // degenerate: keep the simulator happy
	}
	for _, g := range c.Gates {
		ng := g.Clone()
		if g.Op == circuit.OpBarrier {
			kept := ng.Qubits[:0]
			for _, q := range ng.Qubits {
				if ni, ok := newIdx[q]; ok {
					kept = append(kept, ni)
				}
			}
			ng.Qubits = kept
			if len(ng.Qubits) == 0 {
				continue
			}
		} else {
			for i, q := range ng.Qubits {
				ng.Qubits[i] = newIdx[q]
			}
		}
		out.Gates = append(out.Gates, ng)
	}
	return out, origOf
}
