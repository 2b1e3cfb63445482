package pulse

import (
	"math"
	"testing"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
	"qcloud/internal/compile"
)

func compiled(t *testing.T, c *circuit.Circuit, machine string) (*circuit.Circuit, *backend.Calibration) {
	t.Helper()
	m, err := backend.FindMachine(backend.Fleet(), machine)
	if err != nil {
		t.Fatal(err)
	}
	cal := m.CalibrationAt(time.Date(2021, 3, 12, 10, 0, 0, 0, time.UTC))
	res, err := compile.Compile(c, m, cal, compile.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return res.Circ, cal
}

func TestLowerGHZ(t *testing.T) {
	cc, cal := compiled(t, gens.GHZ(4), "ibmq_athens")
	s, err := Lower(cc, cal)
	if err != nil {
		t.Fatal(err)
	}
	if s.CalibEpoch != cal.Epoch {
		t.Fatal("schedule should record its calibration epoch")
	}
	if s.CountKind(KindCR) != 3 {
		t.Fatalf("GHZ(4) should lower to 3 CR pulses, got %d", s.CountKind(KindCR))
	}
	if s.CountKind(KindReadout) != 4 {
		t.Fatalf("readout pulses = %d, want 4", s.CountKind(KindReadout))
	}
	// Makespan at least: H (one sx) + 3 serial CR + readout.
	min := durSXUs + 3*durCRBaseUs + durReadoutUs
	if s.DurationUs() < min {
		t.Fatalf("makespan %v below physical floor %v", s.DurationUs(), min)
	}
}

func TestVirtualZIsFree(t *testing.T) {
	c := circuit.New("rz", 1)
	c.RZ(0, 1.0).RZ(0, 2.0)
	cal := backend.GenCalibration(backend.Line(1), backend.DefaultCalibModel(0), 1, 0, time.Time{})
	s, err := Lower(c, cal)
	if err != nil {
		t.Fatal(err)
	}
	if s.DurationUs() != 0 {
		t.Fatalf("virtual-Z-only schedule should take no time, got %v", s.DurationUs())
	}
	if s.Instructions[0].Angle != 1.0 {
		t.Fatal("frame-change angle lost")
	}
}

func TestLowerRejectsUncompiled(t *testing.T) {
	c := circuit.New("h", 1)
	c.H(0)
	cal := backend.GenCalibration(backend.Line(1), backend.DefaultCalibModel(0), 1, 0, time.Time{})
	if _, err := Lower(c, cal); err == nil {
		t.Fatal("H is not in the pulse basis; should error")
	}
}

func TestBarrierSynchronizesChannels(t *testing.T) {
	c := circuit.New("sync", 2)
	c.X(0).Barrier().X(1)
	cal := backend.GenCalibration(backend.Line(2), backend.DefaultCalibModel(0), 1, 0, time.Time{})
	s, err := Lower(c, cal)
	if err != nil {
		t.Fatal(err)
	}
	// The second X must start after the first finishes.
	var second Instruction
	for _, in := range s.Instructions {
		if in.Channel == "d1" {
			second = in
		}
	}
	if second.StartUs < durXUs {
		t.Fatalf("barrier failed to synchronize: d1 starts at %v", second.StartUs)
	}
}

func TestNoisierCouplersGetLongerCR(t *testing.T) {
	// Two calibrations of the same line: higher CX error must lengthen
	// the CR pulse.
	topo := backend.Line(2)
	model := backend.DefaultCalibModel(0)
	var low, high *backend.Calibration
	lowErr, highErr := math.Inf(1), 0.0
	for epoch := 0; epoch < 40; epoch++ {
		cal := backend.GenCalibration(topo, model, 3, epoch, time.Time{})
		e := cal.CXError(0, 1, 0)
		if e < lowErr {
			lowErr, low = e, cal
		}
		if e > highErr {
			highErr, high = e, cal
		}
	}
	c := circuit.New("cx", 2)
	c.CX(0, 1)
	sLow, err := Lower(c, low)
	if err != nil {
		t.Fatal(err)
	}
	sHigh, err := Lower(c, high)
	if err != nil {
		t.Fatal(err)
	}
	if sHigh.DurationUs() <= sLow.DurationUs() {
		t.Fatalf("noisier coupler should need a longer CR pulse: %v vs %v",
			sHigh.DurationUs(), sLow.DurationUs())
	}
}

func TestResetLowering(t *testing.T) {
	c := circuit.New("rst", 1)
	c.X(0).Reset(0).Measure(0, 0)
	cal := backend.GenCalibration(backend.Line(1), backend.DefaultCalibModel(0), 1, 0, time.Time{})
	s, err := Lower(c, cal)
	if err != nil {
		t.Fatal(err)
	}
	if s.CountKind(KindReadout) != 2 { // reset readout + final measure
		t.Fatalf("readout count = %d, want 2", s.CountKind(KindReadout))
	}
}

func TestStaleDurationPenaltyNonTrivial(t *testing.T) {
	cc, _ := compiled(t, gens.QFTBench(4), "ibmq_toronto")
	m, _ := backend.FindMachine(backend.Fleet(), "ibmq_toronto")
	oldCal := m.CalibrationAt(time.Date(2021, 3, 12, 10, 0, 0, 0, time.UTC))
	newCal := m.CalibrationAt(time.Date(2021, 3, 15, 10, 0, 0, 0, time.UTC))
	pen, err := StaleDurationPenalty(cc, oldCal, newCal)
	if err != nil {
		t.Fatal(err)
	}
	if pen == 0 {
		t.Fatal("calibration change should move the schedule duration")
	}
	if math.Abs(pen) > 1.0 {
		t.Fatalf("penalty implausibly large: %v", pen)
	}
}

func TestScheduleSortedByStart(t *testing.T) {
	cc, cal := compiled(t, gens.QFTBench(4), "ibmq_guadalupe")
	s, err := Lower(cc, cal)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(s.Instructions); i++ {
		if s.Instructions[i].StartUs < s.Instructions[i-1].StartUs {
			t.Fatal("instructions not sorted by start time")
		}
	}
}

// CountKind returns how many instructions have the given kind.
func (s *Schedule) CountKind(k Kind) int {
	n := 0
	for _, in := range s.Instructions {
		if in.Kind == k {
			n++
		}
	}
	return n
}
