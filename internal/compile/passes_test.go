package compile

import (
	"math"
	"testing"

	"qcloud/internal/circuit"
)

// runPassOn applies a single pass to a circuit with a throwaway context.
func runPassOn(t *testing.T, p pass, c *circuit.Circuit) *circuit.Circuit {
	t.Helper()
	ctx := &passContext{Circ: c, Props: make(map[string]int)}
	if err := p.Run(ctx); err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	return ctx.Circ
}

func TestUnroll3q(t *testing.T) {
	c := circuit.New("ccx", 3)
	c.CCX(0, 1, 2)
	out := runPassOn(t, &unroll3qOrMore{}, c)
	counts := out.GateCounts()
	if counts["ccx"] != 0 {
		t.Fatal("ccx survived unrolling")
	}
	if counts["cx"] != 6 {
		t.Fatalf("cx count = %d, want 6 (textbook Toffoli)", counts["cx"])
	}
	// No CCX: pass should be a no-op.
	plain := circuit.New("plain", 2)
	plain.CX(0, 1)
	before := plain.String()
	out = runPassOn(t, &unroll3qOrMore{}, plain)
	if out.String() != before {
		t.Fatal("pass modified CCX-free circuit")
	}
}

func TestBasisTranslatorCoversAllOps(t *testing.T) {
	c := circuit.New("all", 3)
	c.I(0).X(0).Y(0).Z(0).H(0).S(0).Sdg(0).T(0).Tdg(0).SX(0)
	c.RX(1, 0.3).RY(1, 0.4).RZ(1, 0.5).U(1, 0.1, 0.2, 0.3)
	c.CX(0, 1).CZ(1, 2).CPhase(0, 2, math.Pi/8).SWAP(0, 2).CCX(0, 1, 2)
	c.Reset(2).Barrier().MeasureAll()
	out := runPassOn(t, &basisTranslator{}, c)
	for _, g := range out.Gates {
		if !inBasis(g.Op) {
			t.Fatalf("op %v not translated", g.Op)
		}
	}
}

func TestBasisTranslatorSWAPIsThreeCX(t *testing.T) {
	c := circuit.New("swap", 2)
	c.SWAP(0, 1)
	out := runPassOn(t, &basisTranslator{}, c)
	if got := out.GateCounts()["cx"]; got != 3 {
		t.Fatalf("swap -> %d cx, want 3", got)
	}
}

func TestOptimize1qMergesRZ(t *testing.T) {
	c := circuit.New("rz", 1)
	c.RZ(0, 0.3).RZ(0, 0.4)
	out := runPassOn(t, &optimize1qGates{}, c)
	if len(out.Gates) != 1 {
		t.Fatalf("gates = %d, want 1 merged rz", len(out.Gates))
	}
	if got := out.Gates[0].Params[0]; math.Abs(got-0.7) > 1e-12 {
		t.Fatalf("merged angle = %v, want 0.7", got)
	}
}

func TestOptimize1qCancelsInverseRZ(t *testing.T) {
	c := circuit.New("rz0", 1)
	c.RZ(0, 1.1).RZ(0, -1.1)
	out := runPassOn(t, &optimize1qGates{}, c)
	if len(out.Gates) != 0 {
		t.Fatalf("gates = %d, want 0", len(out.Gates))
	}
}

func TestOptimize1qCancelsXXAndHH(t *testing.T) {
	c := circuit.New("xx", 2)
	c.X(0).X(0).H(1).H(1).X(1)
	out := runPassOn(t, &optimize1qGates{}, c)
	if len(out.Gates) != 1 || out.Gates[0].Op != circuit.OpX {
		t.Fatalf("got %v, want single x", out.Gates)
	}
}

func TestOptimize1qRespectsInterveningGates(t *testing.T) {
	c := circuit.New("block", 2)
	c.RZ(0, 0.5).CX(0, 1).RZ(0, 0.5)
	out := runPassOn(t, &optimize1qGates{}, c)
	if len(out.Gates) != 3 {
		t.Fatalf("gates = %d, want 3 (CX blocks merge)", len(out.Gates))
	}
}

func TestOptimize1qDropsIdentityAndZeroRZ(t *testing.T) {
	c := circuit.New("id", 1)
	c.I(0).RZ(0, 0)
	out := runPassOn(t, &optimize1qGates{}, c)
	if len(out.Gates) != 0 {
		t.Fatalf("gates = %d, want 0", len(out.Gates))
	}
}

func TestCommutativeCancellationAdjacentCX(t *testing.T) {
	c := circuit.New("cxcx", 2)
	c.CX(0, 1).CX(0, 1)
	out := runPassOn(t, &commutativeCancellation{}, c)
	if len(out.Gates) != 0 {
		t.Fatalf("gates = %d, want 0", len(out.Gates))
	}
}

func TestCommutativeCancellationThroughDiagonalOnControl(t *testing.T) {
	c := circuit.New("cx-rz-cx", 2)
	c.CX(0, 1).RZ(0, 0.7).CX(0, 1)
	out := runPassOn(t, &commutativeCancellation{}, c)
	counts := out.GateCounts()
	if counts["cx"] != 0 || counts["rz"] != 1 {
		t.Fatalf("counts = %v, want rz only", counts)
	}
}

func TestCommutativeCancellationThroughXOnTarget(t *testing.T) {
	c := circuit.New("cx-x-cx", 2)
	c.CX(0, 1).X(1).CX(0, 1)
	out := runPassOn(t, &commutativeCancellation{}, c)
	if got := out.GateCounts()["cx"]; got != 0 {
		t.Fatalf("cx = %d, want 0 (X commutes with target)", got)
	}
}

func TestCommutativeCancellationBlockedByH(t *testing.T) {
	c := circuit.New("cx-h-cx", 2)
	c.CX(0, 1).H(1).CX(0, 1)
	out := runPassOn(t, &commutativeCancellation{}, c)
	if got := out.GateCounts()["cx"]; got != 2 {
		t.Fatalf("cx = %d, want 2 (H blocks cancellation)", got)
	}
}

func TestCommutativeCancellationBlockedByReversedCX(t *testing.T) {
	c := circuit.New("cx-rev-cx", 2)
	c.CX(0, 1).CX(1, 0).CX(0, 1)
	out := runPassOn(t, &commutativeCancellation{}, c)
	if got := out.GateCounts()["cx"]; got != 3 {
		t.Fatalf("cx = %d, want 3 (reversed CX blocks)", got)
	}
}

func TestRemoveDiagonalBeforeMeasure(t *testing.T) {
	c := circuit.New("diag", 2)
	c.H(0).RZ(0, 0.5).Measure(0, 0)
	c.RZ(1, 0.5).H(1).Measure(1, 1) // rz NOT last on wire 1
	out := runPassOn(t, &removeDiagonalGatesBeforeMeasure{}, c)
	counts := out.GateCounts()
	if counts["rz"] != 1 {
		t.Fatalf("rz = %d, want 1 (only the pre-measure rz dropped)", counts["rz"])
	}
	if counts["h"] != 2 || counts["measure"] != 2 {
		t.Fatalf("unexpected counts %v", counts)
	}
}

func TestRemoveDiagonalScansThroughBarrier(t *testing.T) {
	c := circuit.New("diagb", 1)
	c.RZ(0, 0.5).Barrier().Measure(0, 0)
	out := runPassOn(t, &removeDiagonalGatesBeforeMeasure{}, c)
	if got := out.GateCounts()["rz"]; got != 0 {
		t.Fatalf("rz = %d, want 0 (barrier is transparent)", got)
	}
}

func TestRemoveResetInZeroState(t *testing.T) {
	c := circuit.New("reset", 2)
	c.Reset(0)      // |0>: removable
	c.H(1).Reset(1) // touched: must stay
	out := runPassOn(t, &removeResetInZeroState{}, c)
	if got := out.GateCounts()["reset"]; got != 1 {
		t.Fatalf("reset = %d, want 1", got)
	}
}

func TestConsolidateBlocksMergesRuns(t *testing.T) {
	c := circuit.New("run", 1)
	c.H(0).T(0).H(0).S(0)
	out := runPassOn(t, &consolidateBlocks{}, c)
	if len(out.Gates) != 1 || out.Gates[0].Op != circuit.OpU {
		t.Fatalf("got %v, want single U", out.Gates)
	}
}

func TestConsolidateBlocksDropsNetIdentity(t *testing.T) {
	c := circuit.New("hh", 1)
	c.H(0).H(0)
	out := runPassOn(t, &consolidateBlocks{}, c)
	if len(out.Gates) != 0 {
		t.Fatalf("H·H should vanish, got %v", out.Gates)
	}
}

func TestUnitarySynthesisLowersU(t *testing.T) {
	c := circuit.New("u", 1)
	c.U(0, 1.0, 0.5, 0.25)
	out := runPassOn(t, &unitarySynthesis{}, c)
	for _, g := range out.Gates {
		if g.Op == circuit.OpU {
			t.Fatal("U survived synthesis")
		}
	}
	// General U lowers to the 5-gate ZSXZSXZ pattern.
	if len(out.Gates) != 5 {
		t.Fatalf("gates = %d, want 5", len(out.Gates))
	}
}

func TestUnitarySynthesisShortcuts(t *testing.T) {
	// θ=0: single rz.
	c := circuit.New("rzonly", 1)
	c.U(0, 0, 0.5, 0.25)
	out := runPassOn(t, &unitarySynthesis{}, c)
	if len(out.Gates) != 1 || out.Gates[0].Op != circuit.OpRZ {
		t.Fatalf("got %v, want single rz", out.Gates)
	}
	// θ=π/2: at most rz sx rz.
	c2 := circuit.New("u2", 1)
	c2.U(0, math.Pi/2, 0.3, 0.7)
	out2 := runPassOn(t, &unitarySynthesis{}, c2)
	sxs := 0
	for _, g := range out2.Gates {
		if g.Op == circuit.OpSX {
			sxs++
		}
	}
	if sxs != 1 || len(out2.Gates) > 3 {
		t.Fatalf("U(π/2,...) should use one sx: %v", out2.Gates)
	}
}

func TestCollect2qBlocksCounts(t *testing.T) {
	c := circuit.New("blocks", 3)
	c.CX(0, 1).RZ(1, 0.1).CX(0, 1) // block 1 on (0,1)
	c.CX(1, 2)                     // block 2 on (1,2)
	ctx := &passContext{Circ: c, Props: make(map[string]int)}
	if err := (&collect2qBlocks{}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Props["blocks_2q"]; got != 2 {
		t.Fatalf("blocks = %d, want 2", got)
	}
}

func TestCommutationAnalysisCounts(t *testing.T) {
	c := circuit.New("comm", 2)
	c.RZ(0, 0.1).RZ(0, 0.2) // diagonal pair commutes
	c.X(1).SX(1)            // X-family pair commutes
	c.H(0)                  // doesn't commute with rz
	ctx := &passContext{Circ: c, Props: make(map[string]int)}
	if err := (&commutationAnalysis{}).Run(ctx); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Props["commuting_pairs"]; got != 2 {
		t.Fatalf("commuting pairs = %d, want 2", got)
	}
}

func TestBarrierBeforeFinalMeasurements(t *testing.T) {
	c := circuit.New("bfm", 2)
	c.H(0).CX(0, 1).Measure(0, 0).Measure(1, 1)
	out := runPassOn(t, &barrierBeforeFinalMeasurements{}, c)
	// Expect h, cx, barrier, measure, measure.
	if out.Gates[2].Op != circuit.OpBarrier {
		t.Fatalf("gate[2] = %v, want barrier", out.Gates[2])
	}
	if len(out.Gates) != 5 {
		t.Fatalf("gates = %d, want 5", len(out.Gates))
	}
	// Idempotent: no second barrier on re-run.
	out2 := runPassOn(t, &barrierBeforeFinalMeasurements{}, out)
	barriers := 0
	for _, g := range out2.Gates {
		if g.Op == circuit.OpBarrier {
			barriers++
		}
	}
	if barriers != 1 {
		t.Fatalf("barriers = %d, want 1 after re-run", barriers)
	}
}

func TestBarrierPassNoMeasurements(t *testing.T) {
	c := circuit.New("nomeas", 1)
	c.H(0)
	out := runPassOn(t, &barrierBeforeFinalMeasurements{}, c)
	if len(out.Gates) != 1 {
		t.Fatalf("no-measure circuit should be untouched: %v", out.Gates)
	}
}
