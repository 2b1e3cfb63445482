package qsim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
	"qcloud/internal/compile"
)

// exactDistribution computes the exact terminal-measurement
// distribution over classical bitstrings for a circuit whose
// measurements are all terminal: evolve the state exactly, then map
// basis-state probabilities through the measure gates.
func exactDistribution(t *testing.T, c *circuit.Circuit) map[string]float64 {
	t.Helper()
	if !isTerminalMeasureOnly(c) {
		t.Fatal("exactDistribution requires terminal-measure-only circuits")
	}
	st, err := NewState(c.NQubits)
	if err != nil {
		t.Fatal(err)
	}
	var measures []circuit.Gate
	for _, g := range c.Gates {
		switch g.Op {
		case circuit.OpMeasure:
			measures = append(measures, g)
		case circuit.OpBarrier:
		default:
			if err := st.ApplyGate(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	dist := make(map[string]float64)
	clbits := make([]int, c.NClbits)
	for basis, p := range st.Probabilities() {
		if p < 1e-15 {
			continue
		}
		for i := range clbits {
			clbits[i] = 0
		}
		for _, m := range measures {
			clbits[m.Clbit] = (basis >> uint(m.Qubits[0])) & 1
		}
		dist[bitstring(clbits)] += p
	}
	return dist
}

// totalVariation returns the TV distance between two distributions.
func totalVariation(a, b map[string]float64) float64 {
	keys := make(map[string]bool)
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	tv := 0.0
	for k := range keys {
		tv += math.Abs(a[k] - b[k])
	}
	return tv / 2
}

// TestCompileEquivalenceProperty is the compiler's strongest semantic
// property test: for seeded random circuits, the compiled circuit's
// exact measurement distribution must match the source circuit's
// (layout, routing, basis translation and every optimization pass are
// all distribution-preserving up to global phase).
func TestCompileEquivalenceProperty(t *testing.T) {
	machines := []string{"ibmqx2", "ibmq_vigo", "ibmq_athens"}
	fleet := backend.Fleet()
	at := time.Date(2021, 3, 20, 9, 0, 0, 0, time.UTC)
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		width := 3 + r.Intn(2) // 3-4 qubits
		depth := 3 + r.Intn(6)
		src := gens.Random(r, width, depth, 0.35)
		want := exactDistribution(t, src)

		name := machines[int(seed)%len(machines)]
		m, err := backend.FindMachine(fleet, name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := compile.Compile(src, m, m.CalibrationAt(at), compile.Options{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d on %s: %v", seed, name, err)
		}
		compacted, _ := Compact(res.Circ)
		got := exactDistribution(t, compacted)
		if tv := totalVariation(want, got); tv > 1e-9 {
			t.Fatalf("seed %d on %s: TV distance %v\nsource:\n%scompiled:\n%s",
				seed, name, tv, src, res.Circ)
		}
	}
}

// TestCompileEquivalenceStructured repeats the equivalence check on
// the structured generators, which exercise gate types the random
// generator does not emit (cphase, swap, ccx, ry cascades).
func TestCompileEquivalenceStructured(t *testing.T) {
	fleet := backend.Fleet()
	at := time.Date(2021, 3, 20, 9, 0, 0, 0, time.UTC)
	cases := []struct {
		circ    *circuit.Circuit
		machine string
	}{
		{gens.QFTBench(4), "ibmq_guadalupe"},
		{gens.QAOAMaxCut(4, gens.RingEdges(4), 2), "ibmq_vigo"},
		{gens.WState(4), "ibmq_casablanca"},
		{gens.Grover(3, 0b110), "ibmqx2"},
		{gens.HardwareEfficientAnsatz(rand.New(rand.NewSource(5)), 4, 2), "ibmq_rome"},
	}
	for _, tc := range cases {
		m, err := backend.FindMachine(fleet, tc.machine)
		if err != nil {
			t.Fatal(err)
		}
		res, err := compile.Compile(tc.circ, m, m.CalibrationAt(at), compile.Options{Seed: 61})
		if err != nil {
			t.Fatalf("%s on %s: %v", tc.circ.Name, tc.machine, err)
		}
		compacted, _ := Compact(res.Circ)
		want := exactDistribution(t, tc.circ)
		got := exactDistribution(t, compacted)
		if tv := totalVariation(want, got); tv > 1e-9 {
			t.Fatalf("%s on %s: TV distance %v", tc.circ.Name, tc.machine, tv)
		}
	}
}
