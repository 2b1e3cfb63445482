package qsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
)

func TestNewStateValidation(t *testing.T) {
	if _, err := NewState(0); err == nil {
		t.Fatal("0 qubits should fail")
	}
	if _, err := NewState(MaxQubits + 1); err == nil {
		t.Fatal("too many qubits should fail")
	}
	s, err := NewState(3)
	if err != nil {
		t.Fatal(err)
	}
	if s.Amplitude(0) != 1 || math.Abs(s.Norm()-1) > 1e-12 {
		t.Fatal("initial state should be |000>")
	}
}

func TestHadamardAmplitudes(t *testing.T) {
	s, _ := NewState(1)
	h, _ := circuit.GateMat2(circuit.NewGate(circuit.OpH, []int{0}))
	s.Apply1Q(h, 0)
	want := 1 / math.Sqrt2
	if cmplx.Abs(s.Amplitude(0)-complex(want, 0)) > 1e-12 ||
		cmplx.Abs(s.Amplitude(1)-complex(want, 0)) > 1e-12 {
		t.Fatalf("H|0> amplitudes wrong: %v %v", s.Amplitude(0), s.Amplitude(1))
	}
}

func TestCXEntangles(t *testing.T) {
	s, _ := NewState(2)
	h, _ := circuit.GateMat2(circuit.NewGate(circuit.OpH, []int{0}))
	s.Apply1Q(h, 0)
	s.ApplyCX(0, 1)
	// Bell state: |00> + |11>.
	if cmplx.Abs(s.Amplitude(0b00)) < 0.7 || cmplx.Abs(s.Amplitude(0b11)) < 0.7 {
		t.Fatal("Bell state amplitudes wrong")
	}
	if cmplx.Abs(s.Amplitude(0b01)) > 1e-12 || cmplx.Abs(s.Amplitude(0b10)) > 1e-12 {
		t.Fatal("Bell state has spurious amplitudes")
	}
}

func TestSWAPMovesState(t *testing.T) {
	s, _ := NewState(2)
	x, _ := circuit.GateMat2(circuit.NewGate(circuit.OpX, []int{0}))
	s.Apply1Q(x, 0) // |01> (qubit0 = 1)
	s.ApplySWAP(0, 1)
	if cmplx.Abs(s.Amplitude(0b10)-1) > 1e-12 {
		t.Fatal("SWAP did not move the excitation")
	}
}

func TestCPhaseAppliesPhaseOnlyOn11(t *testing.T) {
	s, _ := NewState(2)
	h, _ := circuit.GateMat2(circuit.NewGate(circuit.OpH, []int{0}))
	s.Apply1Q(h, 0)
	s.Apply1Q(h, 1)
	s.ApplyCPhase(0, 1, math.Pi/2)
	// Only the |11> amplitude gets the i factor.
	if cmplx.Abs(s.Amplitude(0b11)-complex(0, 0.5)) > 1e-12 {
		t.Fatalf("|11> amplitude = %v, want 0.5i", s.Amplitude(0b11))
	}
	if cmplx.Abs(s.Amplitude(0b01)-complex(0.5, 0)) > 1e-12 {
		t.Fatal("|01> amplitude should be unchanged")
	}
}

func TestCCXTruthTable(t *testing.T) {
	for in, want := range map[int]int{
		0b011: 0b111, // both controls set: flip target (qubit 2)
		0b111: 0b011,
		0b001: 0b001, // single control: no flip
		0b100: 0b100,
	} {
		s, _ := NewState(3)
		x, _ := circuit.GateMat2(circuit.NewGate(circuit.OpX, []int{0}))
		for q := 0; q < 3; q++ {
			if in&(1<<q) != 0 {
				s.Apply1Q(x, q)
			}
		}
		s.ApplyCCX(0, 1, 2)
		if cmplx.Abs(s.Amplitude(want)-1) > 1e-12 {
			t.Fatalf("CCX on %03b: want basis %03b", in, want)
		}
	}
}

func TestNormPreservedProperty(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		c := gens.Random(rr, 5, 8, 0.3)
		s, _ := NewState(5)
		for _, g := range c.Gates {
			if g.Op == circuit.OpMeasure {
				continue
			}
			if err := s.ApplyGate(g); err != nil {
				return false
			}
		}
		return math.Abs(s.Norm()-1) < 1e-9
	}
	_ = r
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMeasurementCollapse(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		s, _ := NewState(1)
		h, _ := circuit.GateMat2(circuit.NewGate(circuit.OpH, []int{0}))
		s.Apply1Q(h, 0)
		first := s.MeasureQubit(0, r)
		second := s.MeasureQubit(0, r)
		if first != second {
			t.Fatal("repeated measurement after collapse must agree")
		}
		if math.Abs(s.Norm()-1) > 1e-9 {
			t.Fatal("collapse should renormalize")
		}
	}
}

func TestResetQubit(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	s, _ := NewState(1)
	x, _ := circuit.GateMat2(circuit.NewGate(circuit.OpX, []int{0}))
	s.Apply1Q(x, 0)
	s.ResetQubit(0, r)
	if cmplx.Abs(s.Amplitude(0)-1) > 1e-9 {
		t.Fatal("reset should return qubit to |0>")
	}
}

func TestGHZCounts(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	counts, err := Run(gens.GHZ(5), 4000, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	p0 := counts.Prob("00000")
	p1 := counts.Prob("11111")
	if math.Abs(p0-0.5) > 0.05 || math.Abs(p1-0.5) > 0.05 {
		t.Fatalf("GHZ probabilities %v / %v, want ~0.5 each", p0, p1)
	}
	if p0+p1 < 0.999 {
		t.Fatal("GHZ should only produce all-zeros or all-ones")
	}
}

func TestBernsteinVaziraniRecoversSecret(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	counts, err := Run(gens.BernsteinVazirani(5, 0b10110), 200, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	best, _ := counts.MostFrequent()
	if best != "10110" {
		t.Fatalf("BV returned %q, want 10110", best)
	}
	if counts.Prob("10110") < 0.999 {
		t.Fatal("BV should be deterministic in the noiseless case")
	}
}

func TestQFTBenchAllZeros(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	counts, err := Run(gens.QFTBench(4), 500, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if counts.Prob("0000") < 0.999 {
		t.Fatalf("QFT bench should return all zeros ideally, got %v", counts)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	if _, err := Run(gens.GHZ(3), 0, nil, r); err == nil {
		t.Fatal("0 shots should fail")
	}
	wide := circuit.New("wide", MaxQubits+2)
	wide.H(0)
	if _, err := Run(wide, 10, nil, r); err == nil {
		t.Fatal("too-wide circuit should fail")
	}
}

func TestCountsHelpers(t *testing.T) {
	c := Counts{"00": 30, "11": 70}
	if c.Total() != 100 {
		t.Fatal("total wrong")
	}
	if c.Prob("11") != 0.7 {
		t.Fatal("prob wrong")
	}
	best, n := c.MostFrequent()
	if best != "11" || n != 70 {
		t.Fatal("most frequent wrong")
	}
	var empty Counts
	if empty.Prob("x") != 0 {
		t.Fatal("empty counts prob should be 0")
	}
}

func TestNoiseReducesGHZFidelity(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	noisy, err := Run(gens.GHZ(4), 2000, UniformNoise(0.002, 0.05, 0.03), r)
	if err != nil {
		t.Fatal(err)
	}
	pGood := noisy.Prob("0000") + noisy.Prob("1111")
	if pGood > 0.97 {
		t.Fatalf("noise had no effect: %v", pGood)
	}
	if pGood < 0.5 {
		t.Fatalf("noise implausibly strong: %v", pGood)
	}
}

func TestReadoutErrorRate(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	c := circuit.New("ro", 1)
	c.X(0).Measure(0, 0)
	noise := &NoiseModel{Readout: func(int) float64 { return 0.2 }}
	counts, err := Run(c, 5000, noise, r)
	if err != nil {
		t.Fatal(err)
	}
	if p := counts.Prob("1"); math.Abs(p-0.8) > 0.03 {
		t.Fatalf("readout flip rate: P(1) = %v, want ~0.8", p)
	}
}

func TestMidCircuitMeasurementUsesTrajectories(t *testing.T) {
	// Measure, then conditionally nothing: a mid-circuit measurement
	// followed by H and another measure — outcomes must be 50/50 again.
	r := rand.New(rand.NewSource(12))
	c := circuit.New("mid", 1)
	c.H(0).Measure(0, 0)
	c.H(0).Measure(0, 0)
	counts, err := Run(c, 3000, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	p1 := counts.Prob("1")
	if math.Abs(p1-0.5) > 0.05 {
		t.Fatalf("P(1) = %v, want ~0.5", p1)
	}
}

// NumQubits returns the register size.
func (s *State) NumQubits() int { return s.n }

// Amplitude returns the amplitude of basis state i.
func (s *State) Amplitude(i int) complex128 { return complex(s.re[i], s.im[i]) }

// MostFrequent returns the modal bitstring (ties broken
// lexicographically) and its count. An empty Counts map has no mode:
// it returns ("", 0) so the count is usable as a frequency without a
// sentinel check.
func (c Counts) MostFrequent() (string, int) {
	best, bestN := "", 0
	first := true
	// The lexicographic tie-break totally orders candidates, so the
	// selected mode is independent of iteration order.
	//qcloud:orderinvariant
	for b, n := range c {
		if first || n > bestN || (n == bestN && b < best) {
			best, bestN = b, n
			first = false
		}
	}
	return best, bestN
}
