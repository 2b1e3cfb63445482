package compile

import (
	"testing"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
)

func fleetMachine(t *testing.T, name string) *backend.Machine {
	t.Helper()
	m, err := backend.FindMachine(backend.Fleet(), name)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func compileOn(t *testing.T, c *circuit.Circuit, m *backend.Machine, opts Options) *Result {
	t.Helper()
	cal := m.CalibrationAt(time.Date(2021, 3, 1, 12, 0, 0, 0, time.UTC))
	res, err := Compile(c, m, cal, opts)
	if err != nil {
		t.Fatalf("compile %s on %s: %v", c.Name, m.Name, err)
	}
	return res
}

// assertRouted checks every two-qubit gate touches a coupled pair and
// the circuit is in the hardware basis.
func assertRouted(t *testing.T, res *Result, m *backend.Machine) {
	t.Helper()
	for _, g := range res.Circ.Gates {
		if g.Op.IsTwoQubit() && !m.Topo.HasEdge(g.Qubits[0], g.Qubits[1]) {
			t.Fatalf("gate %v on uncoupled pair", g)
		}
		if !inBasis(g.Op) {
			t.Fatalf("gate %v not in hardware basis", g)
		}
	}
}

func TestCompileGHZOnLine(t *testing.T) {
	m := fleetMachine(t, "ibmq_athens")
	res := compileOn(t, gens.GHZ(5), m, Options{Seed: 1})
	assertRouted(t, res, m)
	// GHZ is a line-shaped interaction graph: a line machine embeds it
	// perfectly, so CSP should find a swap-free layout.
	if res.LayoutMethod != "CSPLayout" {
		t.Fatalf("layout method = %s, want CSPLayout", res.LayoutMethod)
	}
	if res.SwapsInserted != 0 {
		t.Fatalf("swaps = %d, want 0 for perfect embedding", res.SwapsInserted)
	}
	// All five measurements must survive compilation.
	if got := res.Circ.GateCounts()["measure"]; got != 5 {
		t.Fatalf("measurements = %d, want 5", got)
	}
}

func TestCompileQFTOnBowtie(t *testing.T) {
	m := fleetMachine(t, "ibmqx2")
	res := compileOn(t, gens.QFT(4), m, Options{Seed: 2})
	assertRouted(t, res, m)
	if res.Metrics.CXCount == 0 {
		t.Fatal("QFT should contain CX gates after compilation")
	}
}

func TestCompileQFTOnTShape(t *testing.T) {
	// K4 interaction graph cannot embed in the T-shape: routing must
	// insert swaps.
	m := fleetMachine(t, "ibmq_vigo")
	res := compileOn(t, gens.QFT(4), m, Options{Seed: 3})
	assertRouted(t, res, m)
	if res.SwapsInserted == 0 {
		t.Fatal("QFT(4) on a T-shape machine needs swaps")
	}
}

func TestCompileAdderUnrollsCCX(t *testing.T) {
	m := fleetMachine(t, "ibmq_16_melbourne")
	res := compileOn(t, gens.RippleCarryAdder(3), m, Options{Seed: 4})
	assertRouted(t, res, m)
	for _, g := range res.Circ.Gates {
		if g.Op == circuit.OpCCX {
			t.Fatal("CCX survived compilation")
		}
	}
}

func TestCompileDeterministic(t *testing.T) {
	m := fleetMachine(t, "ibmq_casablanca")
	a := compileOn(t, gens.QFT(5), m, Options{Seed: 77})
	b := compileOn(t, gens.QFT(5), m, Options{Seed: 77})
	if a.Circ.String() != b.Circ.String() {
		t.Fatal("same seed must give identical compilation")
	}
	if a.SwapsInserted != b.SwapsInserted {
		t.Fatal("swap counts differ across identical runs")
	}
}

func TestCompileTooWideFails(t *testing.T) {
	m := fleetMachine(t, "ibmq_athens")
	if _, err := Compile(gens.GHZ(6), m, nil, Options{}); err == nil {
		t.Fatal("6q circuit on 5q machine should fail")
	}
}

func TestCompileWithoutCalibration(t *testing.T) {
	// nil calibration: noise-adaptive layout is skipped, dense layout
	// takes over, compilation still succeeds.
	m := fleetMachine(t, "ibmq_vigo")
	res, err := Compile(gens.GHZ(4), m, nil, Options{Seed: 5, SkipCSP: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.LayoutMethod != "DenseLayout" {
		t.Fatalf("layout method = %s, want DenseLayout", res.LayoutMethod)
	}
	assertRouted(t, res, m)
}

func TestTimingsCoverPipeline(t *testing.T) {
	m := fleetMachine(t, "ibmq_bogota")
	res := compileOn(t, gens.QFT(4), m, Options{Seed: 6})
	want := []string{
		"Unroll3qOrMore", "RemoveResetInZeroState", "UnrollCustomDefinitions",
		"CSPLayout", "NoiseAdaptiveLayout", "DenseLayout", "TrivialLayout",
		"SetLayout", "FullAncillaAllocate", "EnlargeWithAncilla", "ApplyLayout",
		"CheckMap", "StochasticSwap", "BasisTranslator",
		"Depth", "Collect2qBlocks", "ConsolidateBlocks", "UnitarySynthesis",
		"Optimize1qGates", "CommutationAnalysis", "CommutativeCancellation",
		"RemoveDiagonalGatesBeforeMeasure", "FixedPoint",
		"BarrierBeforeFinalMeasurements",
	}
	have := make(map[string]bool)
	total := 0.0
	for _, tm := range res.Timings {
		have[tm.Name] = true
		total += tm.Seconds
		if tm.Seconds < 0 {
			t.Fatalf("negative timing for %s", tm.Name)
		}
	}
	for _, name := range want {
		if !have[name] {
			t.Fatalf("pass %s missing from timings (have %v)", name, have)
		}
	}
	if total <= 0 {
		t.Fatal("total compile time should be positive")
	}
}

// TestPassOpsRepeat pins PassTiming.Ops as a function of the
// compilation alone: the same compile counts the same work per pass,
// and every pass that ran counts at least the gates it was handed.
func TestPassOpsRepeat(t *testing.T) {
	m := fleetMachine(t, "ibmq_16_melbourne")
	a := compileOn(t, gens.QFT(8), m, Options{Seed: 3})
	b := compileOn(t, gens.QFT(8), m, Options{Seed: 3})
	if len(a.Timings) != len(b.Timings) {
		t.Fatalf("%d timings, then %d", len(a.Timings), len(b.Timings))
	}
	for i, tm := range a.Timings {
		if tm.Ops <= 0 {
			t.Fatalf("%s counted %d ops", tm.Name, tm.Ops)
		}
		if tm.Name != b.Timings[i].Name || tm.Ops != b.Timings[i].Ops {
			t.Fatalf("%s counted %d ops, then %s %d", tm.Name, tm.Ops, b.Timings[i].Name, b.Timings[i].Ops)
		}
	}
}

func TestNoiseAdaptiveLayoutChangesWithCalibration(t *testing.T) {
	// Fig 12b: the same circuit compiled against two calibration cycles
	// can get different mappings. With heavy spatial error variation the
	// chosen region should eventually differ across epochs.
	m := fleetMachine(t, "ibmq_toronto")
	c := gens.QFT(4)
	base := time.Date(2021, 2, 1, 12, 0, 0, 0, time.UTC)
	first, err := Compile(c, m, m.CalibrationAt(base), Options{Seed: 9, SkipCSP: true})
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for day := 1; day <= 14 && !changed; day++ {
		cal := m.CalibrationAt(base.Add(time.Duration(day) * 24 * time.Hour))
		res, err := Compile(c, m, cal, Options{Seed: 9, SkipCSP: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := range res.Layout {
			if res.Layout[i] != first.Layout[i] {
				changed = true
				break
			}
		}
	}
	if !changed {
		t.Fatal("noise-adaptive layout never changed across 14 calibration cycles")
	}
}

func TestMeasurementsPreservedOnAllWorkloads(t *testing.T) {
	m := fleetMachine(t, "ibmq_guadalupe")
	for _, c := range []*circuit.Circuit{
		gens.QFT(6),
		gens.GHZ(8),
		gens.BernsteinVazirani(6, 0b101101),
		gens.QAOAMaxCut(6, gens.RingEdges(6), 2),
	} {
		res := compileOn(t, c, m, Options{Seed: 11})
		want := c.GateCounts()["measure"]
		got := res.Circ.GateCounts()["measure"]
		if got != want {
			t.Fatalf("%s: measurements %d -> %d", c.Name, want, got)
		}
		assertRouted(t, res, m)
	}
}

func TestBarrierBeforeFinalMeasurePresent(t *testing.T) {
	m := fleetMachine(t, "ibmq_rome")
	res := compileOn(t, gens.GHZ(3), m, Options{Seed: 12})
	// Find the final barrier: it must precede all trailing measures.
	lastBarrier, firstMeasure := -1, -1
	for i, g := range res.Circ.Gates {
		if g.Op == circuit.OpBarrier {
			lastBarrier = i
		}
		if g.Op == circuit.OpMeasure && firstMeasure == -1 {
			firstMeasure = i
		}
	}
	if lastBarrier == -1 || firstMeasure == -1 || lastBarrier > firstMeasure {
		t.Fatalf("barrier %d / first measure %d misordered", lastBarrier, firstMeasure)
	}
}

func TestSwapFreeRouteKeepsOperandOrder(t *testing.T) {
	// A circuit already matching the coupling map routes with zero
	// swaps and identical 2q structure.
	m := fleetMachine(t, "ibmq_santiago")
	c := circuit.New("line", 5)
	c.H(0).CX(0, 1).CX(1, 2).CX(2, 3).CX(3, 4).MeasureAll()
	res := compileOn(t, c, m, Options{Seed: 13})
	if res.SwapsInserted != 0 {
		t.Fatalf("swaps = %d, want 0", res.SwapsInserted)
	}
	if got := res.Metrics.CXCount; got != 4 {
		t.Fatalf("CX count = %d, want 4", got)
	}
}
