package compile

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
	"time"

	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
)

// gateListSum hashes c's register sizes and every gate's op, qubits,
// parameter bits and classical target, followed by layout: any change
// to what the pipeline emits, in any bit, changes the sum.
func gateListSum(c *circuit.Circuit, layout []int) string {
	var b []byte
	b = binary.AppendUvarint(b, uint64(c.NQubits))
	b = binary.AppendUvarint(b, uint64(c.NClbits))
	b = binary.AppendUvarint(b, uint64(len(c.Gates)))
	for _, g := range c.Gates {
		b = binary.AppendUvarint(b, uint64(g.Op))
		b = binary.AppendUvarint(b, uint64(len(g.Qubits)))
		for _, q := range g.Qubits {
			b = binary.AppendVarint(b, int64(q))
		}
		b = binary.AppendUvarint(b, uint64(len(g.Params)))
		for _, p := range g.Params {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
		}
		b = binary.AppendVarint(b, int64(g.Clbit))
	}
	b = binary.AppendUvarint(b, uint64(len(layout)))
	for _, p := range layout {
		b = binary.AppendVarint(b, int64(p))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestCompileGolden pins the bytes Compile and MultiProgram emit on
// four cases that between them reach every layout pass, the CSP
// search's budget cut-off and the exclusion mask. The QFT(8) case is
// the bench probe's compile (compile.swaps_added).
func TestCompileGolden(t *testing.T) {
	at := time.Date(2021, 3, 10, 12, 0, 0, 0, time.UTC)
	type pinned struct {
		sum    string
		swaps  int
		method string
	}
	check := func(t *testing.T, label string, res *Result, want pinned) {
		t.Helper()
		got := pinned{gateListSum(res.Circ, res.Layout), res.SwapsInserted, res.LayoutMethod}
		if got != want {
			t.Errorf("%s: got %+v, want %+v", label, got, want)
		}
	}

	t.Run("qft8-melbourne", func(t *testing.T) {
		m := fleetMachine(t, "ibmq_16_melbourne")
		res, err := Compile(gens.QFT(8), m, m.CalibrationAt(at), Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		check(t, "compile", res, pinned{"6702b73189ffe843bf18e43f5c391083defd37b22536ed00a7542c9bf50a5827", 35, "NoiseAdaptiveLayout"})
	})

	// A dense random circuit on a 65-qubit machine: the CSP search
	// spends its whole node budget without an embedding, so the budget
	// decides how long the pass runs and the noise-adaptive layout
	// decides the result.
	t.Run("dense-budget-manhattan", func(t *testing.T) {
		m := fleetMachine(t, "ibmq_manhattan")
		c := gens.Random(rand.New(rand.NewSource(7)), 12, 20, 0.5)
		res, err := Compile(c, m, m.CalibrationAt(at), Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		check(t, "compile", res, pinned{"93cac5c89e9776e20851363942c396adbff708a636ddf71a52d779bc66e4975f", 132, "NoiseAdaptiveLayout"})
	})

	// No CSP and no calibration: the dense-subgraph layout chooses.
	t.Run("skipcsp-guadalupe", func(t *testing.T) {
		m := fleetMachine(t, "ibmq_guadalupe")
		res, err := Compile(gens.QFT(6), m, nil, Options{Seed: 3, SkipCSP: true})
		if err != nil {
			t.Fatal(err)
		}
		check(t, "compile", res, pinned{"9156ace4b3e872329165352c756c21fedacc92a7030f946322269533d34a5d1a", 26, "DenseLayout"})
	})

	t.Run("multiprogram-excluded-melbourne", func(t *testing.T) {
		m := fleetMachine(t, "ibmq_16_melbourne")
		res, err := MultiProgram(gens.GHZ(4), gens.BernsteinVazirani(3, 0b101), m, m.CalibrationAt(at),
			Options{Seed: 9, Excluded: []int{0, 14}})
		if err != nil {
			t.Fatal(err)
		}
		check(t, "program A", res.ResultA, pinned{"215de08cf7d64e510657062153473bd5d38cadcef71c47af1b8a2ac6d0bad00f", 0, "CSPLayout"})
		check(t, "program B", res.ResultB, pinned{"f9bf4939886d403865ab11e43a1bde749eab3b22f563f814e31e7784af7f7cee", 0, "CSPLayout"})
		if got, want := gateListSum(res.Circ, nil), "791f33c007e930a0362d58511f4c39eeca87acc779320caf0290c15256e371d8"; got != want {
			t.Errorf("merged circuit: sum %s, want %s", got, want)
		}
	})
}
