package qsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"

	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
)

// appendStream appends every field of a compiled stream that execution
// reads: per op its kind, qubits, identity flag, matrices, phase table
// and masks, measurement target and readout error, and each source
// gate's op, operands, angle, matrix and noise probability, in src
// order.
func appendStream(b []byte, p *program) []byte {
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	f := func(v float64) { u(math.Float64bits(v)) }
	c := func(v complex128) { f(real(v)); f(imag(v)) }
	u(uint64(len(p.ops)))
	for i := range p.ops {
		op := &p.ops[i]
		u(uint64(op.kind))
		u(uint64(op.q0))
		u(uint64(op.q1))
		if op.identity {
			u(1)
		} else {
			u(0)
		}
		for _, v := range op.mat {
			c(v)
		}
		for _, v := range op.mat4 {
			c(v)
		}
		u(uint64(len(op.masks)))
		for _, m := range op.masks {
			u(uint64(m))
		}
		for k := range op.tabRe {
			f(op.tabRe[k])
			f(op.tabIm[k])
		}
		u(uint64(op.clbit))
		f(op.roErr)
		u(uint64(len(op.src)))
		for _, g := range op.src {
			u(uint64(g.op))
			u(uint64(g.q0))
			u(uint64(g.q1))
			u(uint64(g.q2))
			u(uint64(g.nq))
			f(g.theta)
			for _, v := range g.mat {
				c(v)
			}
			f(g.noiseP)
		}
	}
	return b
}

// execCircuit builds an exec-plane circuit of family kind the way
// wire.BuildCircuit does (which this package's tests cannot import:
// wire imports qsim), with the same generators and parameters; seed
// shapes the random structure, the ansatz angles and the BV secret.
func execCircuit(kind string, width int, seed int64) *circuit.Circuit {
	r := rand.New(rand.NewSource(seed))
	switch kind {
	case "ghz":
		return gens.GHZ(width)
	case "bv":
		return gens.BernsteinVazirani(width-1, uint64(r.Int63())&(1<<(width-1)-1))
	case "qft":
		return gens.QFT(width)
	case "qaoa":
		return gens.QAOAMaxCut(width, gens.RingEdges(width), 2)
	case "vqe":
		return gens.HardwareEfficientAnsatz(r, width, 3)
	}
	return gens.Random(r, width, 8+width, 0.3)
}

// execFamilies are wire.BuildCircuit's families.
var execFamilies = []string{"ghz", "bv", "qft", "qaoa", "vqe", "random"}

// noisyStreamCases are the noisy programs whose streams
// TestNoisyStreamsUnchanged pins: each exec family at widths 2-12 over
// three seeds, the property suite's compiled shapes (every op kind,
// mid-circuit measure and reset) and conjugation chains, under two
// noise models.
func noisyStreamCases() (circs []*circuit.Circuit, noises []*NoiseModel) {
	add := func(c *circuit.Circuit) { circs = append(circs, c) }
	for w := 2; w <= 12; w++ {
		for seed := int64(0); seed < 3; seed++ {
			for _, kind := range execFamilies {
				add(execCircuit(kind, w, seed))
			}
		}
	}
	gen := rand.New(rand.NewSource(52))
	for i := 0; i < 80; i++ {
		add(randomCompiledShape(gen, 3+gen.Intn(6)))
	}
	for n := 3; n <= 8; n++ {
		add(conjugationCircuit(n, 3*n))
	}
	return circs, []*NoiseModel{UniformNoise(0.002, 0.02, 0.02), UniformNoise(1, 1, 0.5)}
}

// noisyStreamsGolden is the SHA-256 of appendStream over every
// noisyStreamCases program compiled by the linear fuser before the
// commuting fuser existed.
const noisyStreamsGolden = "784fcea96551482a43077e5f263ca5ea1c541cff99b47c0f12c493960063854b"

// TestNoisyStreamsUnchanged pins that a noisy program compiles to the
// stream the linear fuser has always given it, field for field: its
// noise draws follow the stream, so a moved gate would move a draw and
// every trajectory after it.
func TestNoisyStreamsUnchanged(t *testing.T) {
	circs, noises := noisyStreamCases()
	h := sha256.New()
	var buf []byte
	for _, noise := range noises {
		for _, c := range circs {
			prog, err := compileProgram(c, noise, fuseCommuting)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			buf = appendStream(buf[:0], prog)
			h.Write(buf)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != noisyStreamsGolden {
		t.Fatalf("noisy streams hash to %s, want %s", got, noisyStreamsGolden)
	}
}

// opShape is the part of a compiled op the grammar tests compare.
type opShape struct {
	kind   opKind
	q0, q1 int
	src    []circuit.Op
}

func shapes(p *program) []opShape {
	out := make([]opShape, len(p.ops))
	for i := range p.ops {
		op := &p.ops[i]
		out[i] = opShape{kind: op.kind, q0: op.q0, q1: op.q1}
		if op.kind == opSrc {
			out[i].q0, out[i].q1 = op.src[0].q0, op.src[0].q1
		}
		for _, g := range op.src {
			out[i].src = append(out[i].src, g.op)
		}
	}
	return out
}

// TestCommutingFusionGrammar pins where the commuting fuser puts gates:
// a 1q gate joins the last op on its qubit past ops on other qubits, a
// CX opens a block from runs anywhere in the stream (the block goes
// last, the runs' slots are dropped), later gates on the pair join the
// block, a pair with qubit 0 or 1 opens none, and a CZ joins a phase
// table at or after both of its qubits' last ops.
func TestCommutingFusionGrammar(t *testing.T) {
	const (
		h, x, rz, cx, cz = circuit.OpH, circuit.OpX, circuit.OpRZ, circuit.OpCX, circuit.OpCZ
	)
	cases := []struct {
		name  string
		build func(c *circuit.Circuit)
		want  []opShape
	}{
		{"fold past other qubits", func(c *circuit.Circuit) { c.H(2).H(3).H(4).X(2) },
			[]opShape{{opMat2, 2, 0, []circuit.Op{h, x}}, {opMat2, 3, 0, []circuit.Op{h}}, {opMat2, 4, 0, []circuit.Op{h}}}},
		{"block from runs apart", func(c *circuit.Circuit) { c.H(2).H(3).H(4).CX(2, 4).RZ(4, 0.3).X(3) },
			[]opShape{{opMat2, 3, 0, []circuit.Op{h, x}}, {opMat4, 2, 4, []circuit.Op{h, h, cx, rz}}}},
		{"no block on a low pair", func(c *circuit.Circuit) { c.H(0).H(1).CX(0, 1).X(0) },
			[]opShape{{opMat2, 0, 0, []circuit.Op{h}}, {opMat2, 1, 0, []circuit.Op{h}}, {opSrc, 0, 1, []circuit.Op{cx}}, {opMat2, 0, 0, []circuit.Op{x}}}},
		{"cz joins the table after both", func(c *circuit.Circuit) { c.H(2).CZ(3, 4).H(5).CZ(2, 3).RZ(4, 0.2) },
			[]opShape{{opMat2, 2, 0, []circuit.Op{h}}, {opDiag, 0, 0, []circuit.Op{cz, cz, rz}}, {opMat2, 5, 0, []circuit.Op{h}}}},
	}
	for _, tc := range cases {
		c := circuit.New(tc.name, 6)
		tc.build(c)
		prog, err := compileProgram(c, nil, fuseCommuting)
		if err != nil {
			t.Fatal(err)
		}
		if got := shapes(prog); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: stream\n%v\nwant\n%v", tc.name, got, tc.want)
		}
	}
}

// TestCommutingFusionBarriers pins measurement and reset as barriers on
// their own qubit only: a 1q gate after one on q never joins an op
// before it, while a gate on another qubit still joins its own run
// across it; and the trajectory counts match the unfused engine's.
func TestCommutingFusionBarriers(t *testing.T) {
	for _, reset := range []bool{false, true} {
		c := circuit.New("barrier", 4)
		c.H(2).H(3)
		barrier := opMeasure
		if reset {
			c.Reset(2)
			barrier = opReset
		} else {
			c.Measure(2, 0)
		}
		c.RZ(2, 0.3).SX(3).H(2)
		c.Measure(2, 1).Measure(3, 2)
		prog, err := compileProgram(c, nil, fuseCommuting)
		if err != nil {
			t.Fatal(err)
		}
		want := []opShape{
			{opMat2, 2, 0, []circuit.Op{circuit.OpH}},
			{opMat2, 3, 0, []circuit.Op{circuit.OpH, circuit.OpSX}},
			{barrier, 2, 0, nil},
			{opMat2, 2, 0, []circuit.Op{circuit.OpRZ, circuit.OpH}},
			{opMeasure, 2, 0, nil},
			{opMeasure, 3, 0, nil},
		}
		if got := shapes(prog); !reflect.DeepEqual(got, want) {
			t.Fatalf("reset=%v: stream\n%v\nwant\n%v", reset, got, want)
		}
		for _, w := range []int{1, 4} {
			wantCounts, err := runFusion(c, 400, nil, 9, Parallelism{Workers: w}, fuseNone)
			if err != nil {
				t.Fatal(err)
			}
			got, err := runFusion(c, 400, nil, 9, Parallelism{Workers: w}, fuseCommuting)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantCounts) {
				t.Fatalf("reset=%v workers=%d: counts\n%v\nwant\n%v", reset, w, got, wantCounts)
			}
		}
	}
}

// TestCommutingFusionMatchesUnfused holds the production compile of
// every exec-plane family at widths 11-18 over 8 seeds to the unfused
// engine: the same counts at 1 and 4 workers, and final states within
// 1e-12 (up to a global phase).
func TestCommutingFusionMatchesUnfused(t *testing.T) {
	const seeds, shots = 8, 256
	for _, kind := range execFamilies {
		for w := 11; w <= 18; w++ {
			jobs := make([]BatchJob, seeds)
			for s := range jobs {
				c := execCircuit(kind, w, int64(s))
				jobs[s] = BatchJob{Circ: c, Shots: shots, Seed: int64(100*w + s)}
				if s > 0 && sameCircuit(c, jobs[0].Circ) {
					continue // a seed-independent family: one evolution
				}
				var states [2]*State
				for i, level := range []fusion{fuseCommuting, fuseNone} {
					prog, err := compileProgram(c, nil, level)
					if err != nil {
						t.Fatal(err)
					}
					states[i], _ = NewState(w)
					states[i].SetWorkers(1)
					evolveExact(prog, states[i])
				}
				if gap := phaseGap(states[0], states[1]); gap > 1e-12 {
					t.Fatalf("%s width %d seed %d: states %g apart", kind, w, s, gap)
				}
			}
			want := runJobs(jobs, nil, Parallelism{Workers: 1}, fuseNone)
			for _, workers := range []int{1, 4} {
				got := runJobs(jobs, nil, Parallelism{Workers: workers}, fuseCommuting)
				for s := range jobs {
					if want[s].Err != nil || got[s].Err != nil {
						t.Fatalf("%s width %d seed %d: %v, %v", kind, w, s, want[s].Err, got[s].Err)
					}
					if !reflect.DeepEqual(got[s].Counts, want[s].Counts) {
						t.Fatalf("%s width %d seed %d workers %d: counts differ from the unfused engine's", kind, w, s, workers)
					}
				}
			}
		}
	}
}

// phaseGap returns the largest gap between an amplitude of a and b's,
// with b turned by the global phase that maps its largest amplitude onto
// a's: a fused kernel that is the identity up to a global phase is
// skipped, so fused and unfused states may differ by one.
func phaseGap(a, b *State) float64 {
	k := 0
	for i := range b.re {
		if cmplx.Abs(b.Amplitude(i)) > cmplx.Abs(b.Amplitude(k)) {
			k = i
		}
	}
	phase := a.Amplitude(k) / b.Amplitude(k)
	phase /= complex(cmplx.Abs(phase), 0)
	gap := 0.0
	for i := range a.re {
		gap = max(gap, cmplx.Abs(a.Amplitude(i)-phase*b.Amplitude(i)))
	}
	return gap
}

// fuzzOps are the ops FuzzCompileEquivalence decodes: every gate the
// simulator applies, measurement, reset and barrier.
var fuzzOps = []circuit.Op{
	circuit.OpI, circuit.OpX, circuit.OpY, circuit.OpZ, circuit.OpH, circuit.OpS, circuit.OpSdg,
	circuit.OpT, circuit.OpTdg, circuit.OpSX, circuit.OpRX, circuit.OpRY, circuit.OpRZ, circuit.OpU,
	circuit.OpCX, circuit.OpCZ, circuit.OpCPhase, circuit.OpSWAP, circuit.OpCCX,
	circuit.OpMeasure, circuit.OpReset, circuit.OpBarrier,
}

// decodeFuzzCircuit reads a circuit on 1-12 qubits from data: the first
// byte picks the width, then each gate takes an op byte, one byte per
// operand and one per angle (k·2π/256, so 0 — the identity phase —
// comes up). Gates whose operands collide are dropped.
func decodeFuzzCircuit(data []byte) *circuit.Circuit {
	if len(data) == 0 {
		return circuit.New("fuzz", 1)
	}
	n := 1 + int(data[0])%12
	c := circuit.New("fuzz", n)
	data = data[1:]
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	for {
		b, ok := next()
		if !ok {
			return c
		}
		op := fuzzOps[int(b)%len(fuzzOps)]
		nq := op.NumQubits()
		if nq < 0 {
			nq = 1 + int(b)%n
		}
		qubits := make([]int, nq)
		for i := range qubits {
			v, _ := next()
			qubits[i] = int(v) % n
		}
		params := make([]float64, op.NumParams())
		for i := range params {
			v, _ := next()
			params[i] = float64(v) * 2 * math.Pi / 256
		}
		g := circuit.NewGate(op, qubits, params...)
		if op == circuit.OpMeasure {
			g.Clbit = qubits[0]
		}
		_ = c.Append(g) // colliding operands: dropped
	}
}

// FuzzCompileEquivalence holds the commuting fuser to the unfused
// engine on arbitrary gate lists: from one RNG stream, a shot of each
// program measures the same bits and ends in the same state to 1e-12
// (up to a global phase), and the commuting stream has no more ops than
// the linear fuser's.
func FuzzCompileEquivalence(f *testing.F) {
	f.Add([]byte{5, 4, 2, 14, 2, 3, 4, 1, 12, 3, 40, 14, 1, 3})
	f.Add([]byte{11, 4, 0, 4, 1, 14, 0, 1, 16, 2, 5, 77, 19, 0, 12, 2, 0, 20, 1, 4, 2, 17, 3, 6, 18, 0, 1, 2})
	f.Add([]byte{7, 9, 5, 10, 5, 9, 14, 4, 5, 15, 5, 6, 13, 6, 1, 2, 3, 16, 6, 4, 0, 21, 9, 14, 6, 5, 12, 5, 0})
	f.Add([]byte{2, 4, 0, 4, 1, 14, 0, 1, 4, 0, 14, 1, 0, 17, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeFuzzCircuit(data)
		commuting, err := compileProgram(c, nil, fuseCommuting)
		if err != nil {
			t.Fatal(err)
		}
		linear, err := compileProgram(c, nil, fuseBlocks)
		if err != nil {
			t.Fatal(err)
		}
		if len(commuting.ops) > len(linear.ops) {
			t.Fatalf("commuting stream has %d ops, the linear fuser's %d\n%s", len(commuting.ops), len(linear.ops), c)
		}
		unfused, err := compileProgram(c, nil, fuseNone)
		if err != nil {
			t.Fatal(err)
		}
		shot := func(p *program) (*State, []int) {
			st, err := NewState(c.NQubits)
			if err != nil {
				t.Fatal(err)
			}
			st.SetWorkers(1)
			clbits := make([]int, c.NClbits)
			p.exec(st, clbits, rand.New(rand.NewSource(int64(len(data)))))
			return st, clbits
		}
		want, wantBits := shot(unfused)
		got, gotBits := shot(commuting)
		if !reflect.DeepEqual(gotBits, wantBits) {
			t.Fatalf("measured %v, unfused %v\n%s", gotBits, wantBits, c)
		}
		if gap := phaseGap(got, want); gap > 1e-12 {
			t.Fatalf("states %g apart\n%s", gap, c)
		}
	})
}
