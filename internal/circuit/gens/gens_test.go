package gens

import (
	"math/rand"
	"testing"
	"testing/quick"

	"qcloud/internal/circuit"
)

func TestQFTStructure(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		c := QFT(n)
		if c.NQubits != n {
			t.Fatalf("QFT(%d) width = %d", n, c.NQubits)
		}
		counts := c.GateCounts()
		if counts["h"] != n {
			t.Fatalf("QFT(%d) H count = %d, want %d", n, counts["h"], n)
		}
		wantCP := n * (n - 1) / 2
		if counts["cp"] != wantCP {
			t.Fatalf("QFT(%d) cp count = %d, want %d", n, counts["cp"], wantCP)
		}
		if counts["swap"] != n/2 {
			t.Fatalf("QFT(%d) swap count = %d, want %d", n, counts["swap"], n/2)
		}
		if counts["measure"] != n {
			t.Fatalf("QFT(%d) measurements = %d", n, counts["measure"])
		}
	}
}

func TestQFTCXMetricsScaleQuadratically(t *testing.T) {
	m4 := circuit.ComputeMetrics(QFT(4))
	m8 := circuit.ComputeMetrics(QFT(8))
	// cp+swap counts: n(n-1)/2 + n/2 = n²/2, so 8q should be ~4x the 4q.
	if m8.CXCount < 3*m4.CXCount {
		t.Fatalf("expected superlinear CX growth: %d -> %d", m4.CXCount, m8.CXCount)
	}
}

func TestGHZ(t *testing.T) {
	c := GHZ(5)
	counts := c.GateCounts()
	if counts["h"] != 1 || counts["cx"] != 4 {
		t.Fatalf("GHZ(5) counts = %v", counts)
	}
	if GHZ(0).NQubits != 0 {
		t.Fatal("GHZ(0) should be empty but valid")
	}
}

func TestBernsteinVazirani(t *testing.T) {
	c := BernsteinVazirani(4, 0b1011)
	if c.NQubits != 5 {
		t.Fatalf("BV width = %d, want 5", c.NQubits)
	}
	if got := c.GateCounts()["cx"]; got != 3 {
		t.Fatalf("BV cx count = %d, want popcount(1011)=3", got)
	}
	if got := c.GateCounts()["measure"]; got != 4 {
		t.Fatalf("BV measures data qubits only: %d", got)
	}
}

func TestQAOA(t *testing.T) {
	edges := RingEdges(6)
	if len(edges) != 6 {
		t.Fatalf("ring edges = %d", len(edges))
	}
	c := QAOAMaxCut(6, edges, 2)
	counts := c.GateCounts()
	// 2 CX per edge per layer.
	if counts["cx"] != 2*6*2 {
		t.Fatalf("QAOA cx = %d, want 24", counts["cx"])
	}
	if counts["rx"] != 12 {
		t.Fatalf("QAOA rx = %d, want 12", counts["rx"])
	}
}

func TestHardwareEfficientAnsatzSeeded(t *testing.T) {
	a := HardwareEfficientAnsatz(rand.New(rand.NewSource(1)), 4, 3)
	b := HardwareEfficientAnsatz(rand.New(rand.NewSource(1)), 4, 3)
	if a.String() != b.String() {
		t.Fatal("same seed should give identical ansatz")
	}
	cDiff := HardwareEfficientAnsatz(rand.New(rand.NewSource(2)), 4, 3)
	if a.String() == cDiff.String() {
		t.Fatal("different seeds should differ")
	}
	if got := a.GateCounts()["cx"]; got != 3*3 {
		t.Fatalf("ansatz cx = %d, want 9", got)
	}
}

func TestRippleCarryAdder(t *testing.T) {
	c := RippleCarryAdder(3)
	if c.NQubits != 8 {
		t.Fatalf("adder width = %d, want 8", c.NQubits)
	}
	counts := c.GateCounts()
	// 2 MAJ-ish + UMA per bit: 2 CCX per bit.
	if counts["ccx"] != 6 {
		t.Fatalf("adder ccx = %d, want 6", counts["ccx"])
	}
}

func TestRandomCircuitProperties(t *testing.T) {
	f := func(seed int64, wRaw, dRaw uint8) bool {
		w := int(wRaw%10) + 2
		d := int(dRaw%20) + 1
		r := rand.New(rand.NewSource(seed))
		c := Random(r, w, d, 0.3)
		if c.NQubits != w {
			return false
		}
		m := circuit.ComputeMetrics(c)
		// Depth includes the measure layer; each layer adds >= 1 depth.
		return m.Depth >= d && m.GateOps > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(rand.New(rand.NewSource(42)), 5, 10, 0.4)
	b := Random(rand.New(rand.NewSource(42)), 5, 10, 0.4)
	if a.String() != b.String() {
		t.Fatal("same seed must reproduce circuit")
	}
}

func TestRandomTwoQubitFraction(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	none := Random(r, 6, 20, 0)
	if none.CXCount() != 0 {
		t.Fatal("twoQubitFrac=0 should yield no CX")
	}
}
