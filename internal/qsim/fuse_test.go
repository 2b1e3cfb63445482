package qsim

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
)

// fusionCases are the circuits the fused-engine equivalence suites run:
// they cover 1q-chain fusion, diagonal runs (cphase cascades), 2q/3q
// passthrough gates, mid-circuit measurement, and reset.
func fusionCases() []struct {
	name  string
	circ  *circuit.Circuit
	noise *NoiseModel
} {
	resetCirc := circuit.New("reset", 2)
	resetCirc.H(0).CX(0, 1).Reset(0).H(0).Measure(0, 0).Measure(1, 1)
	mixed := circuit.New("mixed", 4)
	mixed.H(0).T(0).H(1).Z(1).CPhase(0, 1, 0.3).CPhase(2, 3, 0).
		CCX(0, 1, 2).SWAP(2, 3).S(3).Sdg(3).RZ(2, 1.2).CZ(1, 2).MeasureAll()
	return []struct {
		name  string
		circ  *circuit.Circuit
		noise *NoiseModel
	}{
		{"exact-qft", gens.QFTBench(5), nil},
		// 12 qubits is above exactFuseMinQubits, so this case drives the
		// fused exact path (the 5q exact cases compile unfused).
		{"exact-qft-fused", gens.QFTBench(12), nil},
		{"exact-ghz", gens.GHZ(5), nil},
		{"noisy-qft", gens.QFTBench(5), UniformNoise(0.002, 0.02, 0.02)},
		{"noisy-ghz", gens.GHZ(5), UniformNoise(0.004, 0.05, 0.03)},
		{"noisy-random", gens.Random(rand.New(rand.NewSource(8)), 5, 10, 0.35), UniformNoise(0.003, 0.03, 0.01)},
		{"noisy-qaoa", gens.QAOAMaxCut(4, gens.RingEdges(4), 2), UniformNoise(0.002, 0.02, 0.02)},
		{"midmeasure", trajectoryCircuit(), nil},
		{"reset", resetCirc, UniformNoise(0.01, 0.05, 0.02)},
		{"mixed-gates", mixed, UniformNoise(0.005, 0.03, 0.02)},
	}
}

// fusionModes are compileProgram's fusion levels the equivalence suites
// compare: fusion along each qubit's timeline (what Run uses), the
// linear fuser with 2q blocks (what noisy programs compile with), 1q-chain
// and diagonal-run fusion only, and the unfused engine.
var fusionModes = []struct {
	name  string
	level fusion
}{
	{"commuting", fuseCommuting},
	{"linear", fuseBlocks},
	{"fused-no2q", fuse1Q},
	{"unfused", fuseNone},
}

// runFusion is RunOpts compiled at the given fusion level, with the
// generator seeded from seed.
func runFusion(c *circuit.Circuit, shots int, noise *NoiseModel, seed int64, p Parallelism, level fusion) (Counts, error) {
	r := rand.New(rand.NewSource(seed))
	res := runJobs([]BatchJob{{Circ: c, Shots: shots, Noise: noise}}, r, p, level)
	return res[0].Counts, res[0].Err
}

// TestFusedMatchesUnfusedCounts is the fusion prepass's contract: for a
// fixed seed, Counts are bit-identical across {2q block fusion on/off,
// all fusion on/off} on both the exact and trajectory paths, for every
// worker count.
func TestFusedMatchesUnfusedCounts(t *testing.T) {
	for _, tc := range fusionCases() {
		var want Counts
		for _, w := range []int{1, 2, runtime.NumCPU()} {
			for _, mode := range fusionModes {
				got, err := runFusion(tc.circ, 600, tc.noise, 41, Parallelism{Workers: w}, mode.level)
				if err != nil {
					t.Fatalf("%s workers=%d %s: %v", tc.name, w, mode.name, err)
				}
				if want == nil {
					want = got
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: counts diverge at workers=%d %s:\n%v\nvs\n%v",
						tc.name, w, mode.name, want, got)
				}
			}
		}
	}
}

// referenceTrajectories is the pre-pooling engine, kept verbatim as the
// oracle: a fresh State and a fresh RNG source per shot, per-gate
// dispatch through ApplyGate, and noise through applyAfterGate.
func referenceTrajectories(t *testing.T, c *circuit.Circuit, shots int, noise *NoiseModel, seed int64) Counts {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	base := r.Int63()
	counts := make(Counts)
	clbits := make([]int, c.NClbits)
	for s := 0; s < shots; s++ {
		sr := rand.New(rand.NewSource(shotSeed(base, s)))
		st, err := NewState(c.NQubits)
		if err != nil {
			t.Fatal(err)
		}
		st.SetWorkers(1)
		for i := range clbits {
			clbits[i] = 0
		}
		for _, g := range c.Gates {
			switch g.Op {
			case circuit.OpMeasure:
				bit := st.MeasureQubit(g.Qubits[0], sr)
				if noise != nil && sr.Float64() < noise.ReadoutError(g.Qubits[0]) {
					bit ^= 1
				}
				clbits[g.Clbit] = bit
			case circuit.OpReset:
				st.ResetQubit(g.Qubits[0], sr)
			case circuit.OpBarrier:
			default:
				if err := st.ApplyGate(g); err != nil {
					t.Fatal(err)
				}
				if noise != nil {
					noise.applyAfterGate(st, g, sr)
				}
			}
		}
		counts[bitstring(clbits)]++
	}
	return counts
}

// referenceExact is the exact path's oracle: gate-by-gate ApplyGate on a
// full-width state, then the terminal distribution sampled from
// rand.NewSource(seed) — one Float64 per shot against the cumulative
// sums in index order, as the serial engine sampled it.
func referenceExact(t *testing.T, c *circuit.Circuit, shots int, seed int64) Counts {
	t.Helper()
	st, err := NewState(c.NQubits)
	if err != nil {
		t.Fatal(err)
	}
	st.SetWorkers(1)
	measured := make(map[int]int) // clbit -> qubit
	for _, g := range c.Gates {
		switch g.Op {
		case circuit.OpMeasure:
			measured[g.Clbit] = g.Qubits[0]
		case circuit.OpBarrier:
		default:
			if err := st.ApplyGate(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	cum := make([]float64, len(st.re))
	total := 0.0
	for i := range cum {
		total += st.re[i]*st.re[i] + st.im[i]*st.im[i]
		cum[i] = total
	}
	r := rand.New(rand.NewSource(seed))
	counts := make(Counts)
	clbits := make([]int, c.NClbits)
	for s := 0; s < shots; s++ {
		idx := sort.SearchFloat64s(cum, r.Float64()*total)
		for cb := range clbits {
			clbits[cb] = 0
			if q, ok := measured[cb]; ok {
				clbits[cb] = idx >> uint(q) & 1
			}
		}
		counts[bitstring(clbits)]++
	}
	return counts
}

// TestPooledMatchesFreshReference pins the buffer pool: reusing one
// State/RNG/histogram per worker across shots yields exactly the Counts
// of the allocate-per-shot reference engine, for every worker count.
func TestPooledMatchesFreshReference(t *testing.T) {
	const shots, seed = 500, 23
	for _, tc := range fusionCases() {
		if tc.noise == nil && isTerminalMeasureOnly(tc.circ) {
			continue // exact path: no per-shot state to pool
		}
		want := referenceTrajectories(t, tc.circ, shots, tc.noise, seed)
		for _, w := range []int{1, 3, runtime.NumCPU()} {
			got, err := RunOpts(tc.circ, shots, tc.noise, rand.New(rand.NewSource(seed)), Parallelism{Workers: w})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", tc.name, w, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s workers=%d: pooled counts diverge from fresh-per-shot reference:\n%v\nvs\n%v",
					tc.name, w, got, want)
			}
		}
	}
}

// TestShotLoopAllocationFree pins the steady-state trajectory loop at
// zero allocations per shot: program execution, state reset, RNG
// reseeding, and dense outcome counting must all reuse worker-owned
// buffers.
func TestShotLoopAllocationFree(t *testing.T) {
	c := gens.QFTBench(8)
	noise := UniformNoise(0.002, 0.02, 0.02)
	prog, err := compileProgram(c, noise, fuseCommuting)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewState(c.NQubits)
	if err != nil {
		t.Fatal(err)
	}
	st.SetWorkers(1)
	sr := rand.New(rand.NewSource(1))
	clbits := make([]int, c.NClbits)
	dense := make([]int, 1<<uint(c.NClbits))
	shot := 0
	avg := testing.AllocsPerRun(200, func() {
		sr.Seed(shotSeed(7, shot))
		shot++
		st.Reset()
		for i := range clbits {
			clbits[i] = 0
		}
		prog.exec(st, clbits, sr)
		idx := 0
		for i, b := range clbits {
			idx |= b << uint(i)
		}
		dense[idx]++
	})
	if avg != 0 {
		t.Fatalf("steady-state shot loop allocates %v per shot, want 0", avg)
	}
}

// TestFusionCollapsesOps checks the prepass actually fuses: the QFT
// benchmark's controlled-phase cascades and Hadamard chains must
// compile to far fewer kernel sweeps than source gates.
func TestFusionCollapsesOps(t *testing.T) {
	c := gens.QFTBench(10)
	fused, err := compileProgram(c, nil, fuseCommuting)
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := compileProgram(c, nil, fuseNone)
	if err != nil {
		t.Fatal(err)
	}
	// QFTBench(10) is 80 ops unfused; its 45 controlled phases collapse
	// into 9 diagonal runs (the Hadamards sit on distinct qubits and
	// correctly stay separate), so expect at least ~40% compression.
	if len(fused.ops) > len(unfused.ops)*6/10 {
		t.Fatalf("fusion barely compressed the stream: %d fused ops vs %d unfused", len(fused.ops), len(unfused.ops))
	}
	hasDiag := false
	for _, op := range fused.ops {
		if op.kind == opDiag && len(op.src) > 1 {
			hasDiag = true
		}
	}
	if !hasDiag {
		t.Fatal("expected at least one multi-gate diagonal run in fused QFT")
	}
}

// TestFusedAmplitudesMatchNaive compares the fused execution of a
// diagonal-heavy circuit against gate-by-gate ApplyGate dispatch: the
// state must agree to floating-point accumulation error.
func TestFusedAmplitudesMatchNaive(t *testing.T) {
	c := circuit.New("diagheavy", 6)
	for q := 0; q < 6; q++ {
		c.H(q)
	}
	c.T(0).Z(1).CZ(0, 2).CPhase(3, 1, 0.8).RZ(4, 0.7).S(5).Sdg(2).
		CPhase(5, 0, 0).Tdg(3).CZ(4, 5).H(0).SX(0).RX(1, 0.3).RY(1, 1.1)
	prog, err := compileProgram(c, nil, fuseCommuting)
	if err != nil {
		t.Fatal(err)
	}
	fusedSt, err := NewState(6)
	if err != nil {
		t.Fatal(err)
	}
	for oi := range prog.ops {
		prog.ops[oi].applyFast(fusedSt)
	}
	naiveSt, err := NewState(6)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range c.Gates {
		if err := naiveSt.ApplyGate(g); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1<<6; i++ {
		d := fusedSt.Amplitude(i) - naiveSt.Amplitude(i)
		if real(d)*real(d)+imag(d)*imag(d) > 1e-24 {
			t.Fatalf("amplitude %d: fused %v vs naive %v", i, fusedSt.Amplitude(i), naiveSt.Amplitude(i))
		}
	}
}

// TestCPhaseZeroThetaIsFree pins the identity-phase satellite: a cp(0)
// leaves the state bitwise untouched, and a fused run of only identity
// phases compiles to a skipped sweep.
func TestCPhaseZeroThetaIsFree(t *testing.T) {
	st, err := NewState(4)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := circuit.GateMat2(circuit.NewGate(circuit.OpH, []int{0}))
	for q := 0; q < 4; q++ {
		st.Apply1Q(h, q)
	}
	st.ApplyCPhase(0, 1, 0.9)
	before := make([]complex128, 1<<4)
	for i := range before {
		before[i] = st.Amplitude(i)
	}
	st.ApplyCPhase(2, 3, 0)
	for i := range before {
		if st.Amplitude(i) != before[i] {
			t.Fatalf("cp(0) modified amplitude %d: %v -> %v", i, before[i], st.Amplitude(i))
		}
	}

	c := circuit.New("cp0", 3)
	c.CPhase(0, 1, 0).CPhase(1, 2, 0).CPhase(0, 2, 0)
	prog, err := compileProgram(c, nil, fuseCommuting)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.ops) != 1 || !prog.ops[0].identity {
		t.Fatalf("cp(0) run should fuse to one skipped op, got %+v", prog.ops)
	}
}

// TestKernelMinAmpsKnob moves the serial/parallel crossover
// threshold: forcing kernels parallel on a tiny state must not change
// Counts (the register is far below one reduction chunk, so summation
// order is unchanged).
func TestKernelMinAmpsKnob(t *testing.T) {
	circ := gens.QFTBench(6)
	noise := UniformNoise(0.002, 0.02, 0.02)
	want, err := RunOpts(circ, 400, noise, rand.New(rand.NewSource(5)), Parallelism{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	def := kernelMinAmps
	t.Cleanup(func() { kernelMinAmps = def })
	for _, minAmps := range []int{1, 16, 1 << 20} {
		kernelMinAmps = minAmps
		got, err := RunOpts(circ, 400, noise, rand.New(rand.NewSource(5)), Parallelism{Workers: 4})
		if err != nil {
			t.Fatalf("minAmps=%d: %v", minAmps, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("minAmps=%d: counts diverge from default threshold:\n%v\nvs\n%v", minAmps, want, got)
		}
	}
}
