package qsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
)

// TestApply2QMatchesGateDispatch pins the 4x4 kernel against the
// dedicated per-gate kernels: applying GateMat4(g) through Apply2Q must
// reproduce ApplyGate(g) on a non-trivial state, for every embeddable
// gate and both role orders, serial and sharded.
func TestApply2QMatchesGateDispatch(t *testing.T) {
	const n = 6
	gates := []circuit.Gate{
		circuit.NewGate(circuit.OpCX, []int{1, 4}),
		circuit.NewGate(circuit.OpCX, []int{4, 1}),
		circuit.NewGate(circuit.OpCZ, []int{0, 5}),
		circuit.NewGate(circuit.OpCPhase, []int{2, 3}, 0.8),
		circuit.NewGate(circuit.OpSWAP, []int{0, 3}),
		circuit.NewGate(circuit.OpSX, []int{2}),
		circuit.NewGate(circuit.OpRZ, []int{4}, 1.1),
	}
	prep := func() *State {
		st, err := NewState(n)
		if err != nil {
			t.Fatal(err)
		}
		st.SetWorkers(1)
		r := rand.New(rand.NewSource(7))
		for q := 0; q < n; q++ {
			m := circuit.U3Mat(r.Float64()*3, r.Float64()*6, r.Float64()*6)
			st.Apply1Q(m, q)
		}
		st.ApplyCX(0, 1)
		st.ApplyCX(2, 3)
		return st
	}
	for _, g := range gates {
		for _, roles := range [][2]int{{1, 4}, {4, 1}, {2, 3}, {0, 5}, {3, 0}, {5, 2}} {
			q0, q1 := roles[0], roles[1]
			m, ok := circuit.GateMat4(g, q0, q1)
			if !ok {
				continue // gate does not fit this pair
			}
			want := prep()
			if err := want.ApplyGate(g); err != nil {
				t.Fatal(err)
			}
			got := prep()
			got.Apply2Q(m, q0, q1)
			for i := 0; i < 1<<n; i++ {
				d := want.Amplitude(i) - got.Amplitude(i)
				if real(d)*real(d)+imag(d)*imag(d) > 1e-24 {
					t.Fatalf("%v on roles (%d,%d): amplitude %d differs: %v vs %v",
						g, q0, q1, i, got.Amplitude(i), want.Amplitude(i))
				}
			}
		}
	}
}

// conjugationCircuit builds the compiled-shape hot path: rz·sx·rz
// chains on both qubits of each CX, the stream 2q block fusion exists
// to collapse.
func conjugationCircuit(n, rounds int) *circuit.Circuit {
	c := circuit.New(fmt.Sprintf("conj%dx%d", n, rounds), n)
	r := rand.New(rand.NewSource(int64(n*1000 + rounds)))
	for k := 0; k < rounds; k++ {
		a := r.Intn(n)
		b := (a + 1 + r.Intn(n-1)) % n
		c.RZ(a, r.Float64()*6).SX(a).RZ(a, r.Float64()*6)
		c.RZ(b, r.Float64()*6).SX(b).RZ(b, r.Float64()*6)
		c.CX(a, b)
		c.RZ(b, r.Float64()*6).SX(b).RZ(b, r.Float64()*6)
	}
	c.MeasureAll()
	return c
}

// TestFusion2QCollapsesConjugation is the tentpole's compile-shape
// contract: a full rz·sx·rz — cx — rz·sx·rz conjugation on one pair
// compiles to exactly one 4x4 sweep under both fusers (on qubits 2 and
// 3, where the commuting fuser opens blocks), and the blocked stream of
// a conjugation-chain circuit is much shorter than the PR 2 stream.
func TestFusion2QCollapsesConjugation(t *testing.T) {
	c := circuit.New("conj", 4)
	c.RZ(2, 0.3).SX(2).RZ(2, 0.5)
	c.RZ(3, 0.7).SX(3).RZ(3, 0.9)
	c.CX(2, 3)
	c.RZ(3, 1.1).SX(3).RZ(3, 1.3)
	c.RZ(2, 1.5).SX(2).RZ(2, 1.7)
	for _, level := range []fusion{fuseBlocks, fuseCommuting} {
		prog, err := compileProgram(c, nil, level)
		if err != nil {
			t.Fatal(err)
		}
		if len(prog.ops) != 1 {
			t.Fatalf("level %d: conjugation compiled to %d ops, want 1: %+v", level, len(prog.ops), prog.ops)
		}
		op := &prog.ops[0]
		if op.kind != opMat4 || len(op.src) != 13 {
			t.Fatalf("level %d: want one opMat4 holding all 13 source gates, got kind=%d src=%d", level, op.kind, len(op.src))
		}
	}

	// Noisy, so blocks open on qubits 0 and 1 too.
	big := conjugationCircuit(6, 20)
	unfused, fused1q, blocked, err := KernelCounts(big, UniformNoise(0.01, 0.02, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if blocked*2 > fused1q {
		t.Fatalf("2q blocking barely compressed: %d blocked vs %d fused1q (%d unfused)", blocked, fused1q, unfused)
	}
}

// Test2QBlockGrammar pins when the linear fuser (every noisy program's)
// opens and closes blocks: a bare CX keeps its dedicated exchange
// kernel, a CX preceded by a fused 1q run opens a block, CZ/CPhase
// prefer diagonal runs unless a same-pair block is already open, and a
// gate off the pair closes the block.
func Test2QBlockGrammar(t *testing.T) {
	noise := UniformNoise(0.01, 0.02, 0.01)
	// GHZ: h(0) cx(0,1) opens a block (the H is waiting); the later
	// bare cx(1,2), cx(2,3) stay opSrc exchanges.
	prog, err := compileProgram(gens.GHZ(4), noise, fuseCommuting)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []opKind
	for i := range prog.ops {
		if prog.ops[i].kind != opMeasure {
			kinds = append(kinds, prog.ops[i].kind)
		}
	}
	if !reflect.DeepEqual(kinds, []opKind{opMat4, opSrc, opSrc}) {
		t.Fatalf("GHZ(4) unitary stream = %v, want [opMat4 opSrc opSrc]", kinds)
	}

	// QAOA RZZ: cx — rz — cx on one pair is one block (the first cx
	// opens on the preceding mixer 1q run, then rz and cx absorb).
	c := circuit.New("rzz", 2)
	c.H(0).H(1).CX(0, 1).RZ(1, 0.8).CX(0, 1)
	prog, err = compileProgram(c, noise, fuseCommuting)
	if err != nil {
		t.Fatal(err)
	}
	// h(0) stays a lone Mat2 (wrong qubit order to fold both), h(1)
	// + cx + rz + cx collapse. Accept any stream of <= 2 unitary ops
	// ending in a multi-gate block.
	var unitary []*fusedOp
	for i := range prog.ops {
		if prog.ops[i].kind != opMeasure {
			unitary = append(unitary, &prog.ops[i])
		}
	}
	lastOp := unitary[len(unitary)-1]
	if len(unitary) > 2 || lastOp.kind != opMat4 || len(lastOp.src) < 4 {
		t.Fatalf("RZZ sandwich did not collapse: %d unitary ops, last kind=%d src=%d",
			len(unitary), lastOp.kind, len(lastOp.src))
	}

	// CZ with no same-pair block open joins a diagonal run even when a
	// different-pair block precedes it.
	c = circuit.New("czdiag", 3)
	c.H(0).CX(0, 1).CZ(1, 2).CZ(0, 2)
	prog, err = compileProgram(c, noise, fuseCommuting)
	if err != nil {
		t.Fatal(err)
	}
	if prog.ops[0].kind != opMat4 || prog.ops[1].kind != opDiag || len(prog.ops[1].src) != 2 {
		t.Fatalf("cz gates should share one diagonal run after the block, got %+v", prog.ops)
	}

	// A same-pair CZ absorbs into the open block instead.
	c = circuit.New("czblock", 2)
	c.H(0).CX(0, 1).CZ(0, 1)
	prog, err = compileProgram(c, noise, fuseCommuting)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.ops) != 1 || prog.ops[0].kind != opMat4 || len(prog.ops[0].src) != 3 {
		t.Fatalf("same-pair cz should absorb into the block, got %+v", prog.ops)
	}
}

// randomCompiledShape generates the property-suite circuits: mixed 1q
// conjugation chains, CX/CZ/CPhase/SWAP pairs, diagonal runs, CCX, and
// occasional mid-circuit measurement/reset — the gate mix compiled
// circuits and the fusion grammar have to agree on.
func randomCompiledShape(r *rand.Rand, n int) *circuit.Circuit {
	c := circuit.New("prop", n)
	pair := func() (int, int) {
		a := r.Intn(n)
		return a, (a + 1 + r.Intn(n-1)) % n
	}
	steps := 10 + r.Intn(14)
	for s := 0; s < steps; s++ {
		switch r.Intn(12) {
		case 0, 1, 2:
			q := r.Intn(n)
			c.RZ(q, r.Float64()*6).SX(q).RZ(q, r.Float64()*6)
		case 3, 4:
			a, b := pair()
			c.CX(a, b)
		case 5:
			a, b := pair()
			c.SWAP(a, b)
		case 6:
			a, b := pair()
			c.CZ(a, b)
		case 7:
			a, b := pair()
			c.CPhase(a, b, r.Float64()*6)
		case 8:
			q := r.Intn(n)
			c.H(q)
		case 9:
			q := r.Intn(n)
			c.T(q).RZ(q, r.Float64())
		case 10:
			if n >= 3 {
				a := r.Intn(n - 2)
				c.CCX(a, a+1, a+2)
			} else {
				c.X(r.Intn(n))
			}
		case 11:
			q := r.Intn(n)
			if r.Intn(2) == 0 {
				c.Reset(q)
			} else {
				c.Measure(q, q)
			}
		}
	}
	c.MeasureAll()
	return c
}

// TestFused2QPropertySuite is the randomized equivalence property: for
// >= 200 random compiled-shape circuits with mixed noise levels —
// including probability-1 noise that forces every block through the
// applySlow replay path — the fully blocked engine's counts are
// bit-identical to the kept-verbatim PR 1 reference engine, for
// serial and parallel pools.
func TestFused2QPropertySuite(t *testing.T) {
	const cases, shots = 210, 40
	gen := rand.New(rand.NewSource(99))
	for i := 0; i < cases; i++ {
		n := 3 + gen.Intn(4)
		c := randomCompiledShape(gen, n)
		var noise *NoiseModel
		switch i % 4 {
		case 0:
			noise = UniformNoise(0.01, 0.05, 0.02)
		case 1:
			// High rates: most blocks see a mid-block fire.
			noise = UniformNoise(0.3, 0.5, 0.1)
		case 2:
			// Forced fires: every gate's draw hits, so every fused
			// block (including 4x4 blocks) replays through applySlow.
			noise = UniformNoise(1, 1, 0.5)
		case 3:
			noise = UniformNoise(0.002, 0.02, 0)
		}
		seed := int64(1000 + i)
		want := referenceTrajectories(t, c, shots, noise, seed)
		for _, w := range []int{1, 4} {
			got, err := RunOpts(c, shots, noise, rand.New(rand.NewSource(seed)), Parallelism{Workers: w})
			if err != nil {
				t.Fatalf("case %d workers=%d: %v", i, w, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("case %d workers=%d (%s): blocked counts diverge from reference:\n%v\nvs\n%v",
					i, w, c.Name, got, want)
			}
		}
	}
}

// TestForcedMidBlockSlowPath pins the applySlow contract on 4x4 blocks
// directly: with certain noise, a conjugation circuit (which compiles
// to multi-gate opMat4 blocks) must still match the reference engine
// exactly — every shot replays blocks gate by gate with Paulis
// injected in place.
func TestForcedMidBlockSlowPath(t *testing.T) {
	c := conjugationCircuit(4, 6)
	prog, err := compileProgram(c, UniformNoise(1, 1, 0.2), fuseCommuting)
	if err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for i := range prog.ops {
		if prog.ops[i].kind == opMat4 && len(prog.ops[i].src) > 1 {
			blocks++
		}
	}
	if blocks == 0 {
		t.Fatal("conjugation circuit should compile to multi-gate 4x4 blocks")
	}
	noise := UniformNoise(1, 1, 0.2)
	want := referenceTrajectories(t, c, 120, noise, 17)
	got, err := RunOpts(c, 120, noise, rand.New(rand.NewSource(17)), Parallelism{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("forced slow-path counts diverge:\n%v\nvs\n%v", got, want)
	}
}

// TestBlockedShotLoopAllocationFree extends the steady-state
// zero-allocation pin to the blocked executor: a conjugation-heavy
// program full of opMat4 blocks must execute shots without allocating.
func TestBlockedShotLoopAllocationFree(t *testing.T) {
	c := conjugationCircuit(6, 12)
	noise := UniformNoise(0.01, 0.03, 0.02)
	prog, err := compileProgram(c, noise, fuseCommuting)
	if err != nil {
		t.Fatal(err)
	}
	hasBlock := false
	for i := range prog.ops {
		if prog.ops[i].kind == opMat4 {
			hasBlock = true
		}
	}
	if !hasBlock {
		t.Fatal("expected 4x4 blocks in the compiled stream")
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
		sr.Seed(shotSeed(11, shot))
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
		t.Fatalf("blocked steady-state shot loop allocates %v per shot, want 0", avg)
	}
}
