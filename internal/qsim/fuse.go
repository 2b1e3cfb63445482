// Gate fusion: circuits are compiled once per Run into a flat op
// stream so the per-shot trajectory loop does zero map lookups, zero
// matrix construction, and far fewer amplitude sweeps.
//
// Four prepasses run during compilation:
//
//   - consecutive 1q gates on the same qubit are merged into one
//     precomputed Mat2 (the classic rz-sx-rz-sx-rz chains compiled
//     circuits are full of become a single sweep);
//   - runs of gates touching the same qubit pair — 1q gates on either
//     qubit, CX/CZ/CPhase/SWAP on the pair — collapse into one
//     precomputed Mat4 (qsim/qulacs-style 2q block fusion): a compiled
//     rz·sx·rz—cx—rz·sx·rz conjugation becomes a single
//     four-amplitude sweep instead of five to seven;
//   - runs of diagonal gates (I/Z/S/Sdg/T/Tdg/RZ/CZ/CPhase) collapse
//     into a single phase-table kernel: one sweep multiplies each
//     amplitude by a precomputed phase indexed by the gathered bits of
//     the run's touched qubits;
//   - noise-channel probabilities are sampled from the model once per
//     gate at compile time instead of once per gate per shot.
//
// Determinism: fusion never reorders gates and never changes the
// per-shot RNG draw sequence. Noise draws are state-independent (a
// uniform variate compared against the gate's precomputed probability),
// so the executor consumes them gate by gate in program order before
// applying a fused kernel; in the rare shot where a draw fires inside a
// fused block, the executor falls back to replaying that block's
// original gates one by one with the Pauli injected in place, exactly
// as the unfused engine would. Counts for a fixed seed are therefore
// identical across fused/unfused execution and any worker count (fused
// amplitudes may differ from unfused in the last ulps — matrix products
// associate differently — which leaves every sampled outcome unchanged).
package qsim

import (
	"fmt"
	"math/cmplx"
	"math/rand"

	"qcloud/internal/circuit"
)

// exactFuseMinQubits is the register width below which the exact
// (single-evolution) path skips the fusion prepass: compiling the op
// stream costs tens of microseconds, which a sub-1024-amplitude
// evolution cannot recover. Trajectory runs always fuse — the compile
// amortizes across shots. Measured crossover: fused wins from ~11
// qubits up.
const exactFuseMinQubits = 11

// maxDiagQubits caps the touched-qubit set of one fused diagonal run:
// the phase table holds 2^k entries and the gather loop costs k bit
// tests per amplitude, so runs touching more qubits split. 10 keeps the
// table (16 KiB) inside L1/L2 while still collapsing a full QFT
// controlled-phase cascade on 10 qubits into one sweep.
const maxDiagQubits = 10

// Precomputed Pauli matrices for noise injection and qubit reset — the
// unfused engine rebuilt these through GateMat2 on every application.
var (
	pauliXMat = circuit.Mat2{0, 1, 1, 0}
	pauliYMat = circuit.Mat2{0, complex(0, -1), complex(0, 1), 0}
	pauliZMat = circuit.Mat2{1, 0, 0, -1}
)

// opKind discriminates fused ops.
type opKind uint8

const (
	// opSrc applies a single source gate through the precomputed
	// dispatch in srcGate (2q/3q non-diagonal gates, and every unitary
	// when fusion is disabled).
	opSrc opKind = iota
	// opMat2 applies one precomputed 2x2 unitary to q0 (a fused run of
	// 1q gates).
	opMat2
	// opMat4 applies one precomputed 4x4 unitary to the pair (q0, q1): a
	// fused two-qubit block absorbing 1q gates on either qubit and
	// CX/CZ/CPhase/SWAP on the pair, so a compiled rz·sx·rz—cx—rz·sx·rz
	// conjugation becomes a single four-amplitude sweep.
	opMat4
	// opDiag multiplies each amplitude by a phase-table entry indexed by
	// the gathered bits of the run's touched qubits (a fused run of
	// diagonal gates).
	opDiag
	opMeasure
	opReset
)

// srcGate is the unfused view of one original gate: enough precomputed
// state to apply it without map lookups or matrix construction. The
// executor uses it on the rare noisy fallback path; opSrc ops use it as
// their fast path too.
type srcGate struct {
	op     circuit.Op
	q0, q1 int
	q2     int
	nq     int     // operand count (the Pauli-site Intn draw)
	theta  float64 // cphase angle
	mat    circuit.Mat2
	// noiseP is the precomputed post-gate error probability; 0 means the
	// model draws nothing for this gate.
	noiseP float64
}

// qubit returns operand i (for Pauli-site selection).
func (g *srcGate) qubit(i int) int {
	switch i {
	case 0:
		return g.q0
	case 1:
		return g.q1
	default:
		return g.q2
	}
}

// fusedOp is one instruction of a compiled program.
type fusedOp struct {
	kind opKind
	q0   int
	// q1 is the second qubit of an opMat4 pair: q0 is the Mat4 basis's
	// low bit b0, q1 its high bit b1.
	q1 int
	// identity marks a fused kernel that reduced to the identity (up to
	// global phase), e.g. a cp(0) run: the sweep is skipped while its
	// noise draws still happen.
	identity bool
	mat      circuit.Mat2 // opMat2
	mat4     circuit.Mat4 // opMat4
	// opDiag: masks[k] is the bit mask of table qubit k; the table holds
	// 2^len(masks) phases split into real/imag halves.
	masks        []int
	tabRe, tabIm []float64
	// lut[b][v] is the table-index contribution of amplitude-index byte
	// b having value v, so the kernel gathers a table index with one
	// load+or per byte instead of one test+shift per touched qubit.
	// Built once per program by finalizeDiag.
	lut [][256]uint16
	// src lists the original gates in program order (unitary ops only).
	src []srcGate
	// opMeasure: classical target and precomputed readout flip
	// probability.
	clbit int
	roErr float64
}

// program is a compiled circuit: the unit of per-shot execution.
type program struct {
	ops     []fusedOp
	nqubits int
	nclbits int
	// noisy records whether a noise model was attached at compile time;
	// it gates the per-gate and per-measure RNG draws.
	noisy bool
}

// gateNoiseP mirrors NoiseModel.applyAfterGate's probability selection:
// 2q gates take the coupler model, 1q gates the single-qubit model, and
// everything else (CCX, barrier) draws nothing.
func gateNoiseP(noise *NoiseModel, g circuit.Gate) float64 {
	if noise == nil {
		return 0
	}
	switch {
	case g.Op.IsTwoQubit() && noise.TwoQubit != nil:
		return noise.TwoQubit(g.Qubits[0], g.Qubits[1])
	case len(g.Qubits) == 1 && noise.OneQubit != nil:
		return noise.OneQubit(g.Qubits[0])
	}
	return 0
}

// compileProgram lowers a circuit into a fused op stream. With fuse
// false every unitary becomes its own opSrc — the pre-fusion engine,
// which small exact evolutions run and the equivalence tests and
// KernelCounts compare against. fuse2q additionally enables two-qubit
// block fusion (4x4 kernels), and is ignored when fuse is false.
func compileProgram(c *circuit.Circuit, noise *NoiseModel, fuse, fuse2q bool) (*program, error) {
	p := &program{nqubits: c.NQubits, nclbits: c.NClbits, noisy: noise != nil}
	p.ops = make([]fusedOp, 0, len(c.Gates))
	for _, g := range c.Gates {
		switch g.Op {
		case circuit.OpBarrier:
			continue
		case circuit.OpMeasure:
			p.ops = append(p.ops, fusedOp{
				kind:  opMeasure,
				q0:    g.Qubits[0],
				clbit: g.Clbit,
				roErr: noise.ReadoutError(g.Qubits[0]),
			})
			continue
		case circuit.OpReset:
			p.ops = append(p.ops, fusedOp{kind: opReset, q0: g.Qubits[0]})
			continue
		}
		src, err := lowerGate(g, noise)
		if err != nil {
			return nil, err
		}
		last := p.lastOp()
		switch {
		case fuse && fuse2q && last != nil && last.kind == opMat4 && last.canAbsorb2Q(g):
			// The open two-qubit block takes 1q gates on either pair
			// qubit and CX/CZ/CPhase/SWAP on the pair: one 4x4 product.
			last.absorb2Q(g, src)
		case fuse && len(g.Qubits) == 1 && last != nil && last.kind == opMat2 && last.q0 == g.Qubits[0]:
			// Adjacent 1q gates on the same qubit: one matrix product.
			last.mat = src.mat.Mul(last.mat)
			last.identity = last.mat.IsIdentity()
			last.src = append(last.src, src)
		case fuse && g.Op.IsDiagonal() && last != nil && last.kind == opDiag && last.diagCanAbsorb(g):
			last.absorbDiag(g, src)
		case fuse && fuse2q && (g.Op == circuit.OpCX || g.Op == circuit.OpSWAP) && p.open2QBlock(g, src):
			// A non-diagonal 2q gate preceded by fused 1q runs on its
			// qubits: the runs and the gate collapsed into one 4x4 block.
		case fuse && (g.Op == circuit.OpCZ || g.Op == circuit.OpCPhase):
			// 2q diagonal: starts a phase-table run.
			op := fusedOp{kind: opDiag, identity: true}
			op.absorbDiag(g, src)
			p.ops = append(p.ops, op)
		case fuse && len(g.Qubits) == 1:
			// Lone 1q gate: seed a Mat2 op so later neighbors merge in.
			p.ops = append(p.ops, fusedOp{
				kind:     opMat2,
				q0:       g.Qubits[0],
				mat:      src.mat,
				identity: src.mat.IsIdentity(),
				src:      []srcGate{src},
			})
		default:
			p.ops = append(p.ops, fusedOp{kind: opSrc, src: []srcGate{src}})
		}
	}
	for oi := range p.ops {
		p.ops[oi].finalizeDiag(c.NQubits)
	}
	return p, nil
}

// KernelCounts reports the compiled op-stream length of circuit c under
// each fusion setting: no fusion, 1q-chain + diagonal-run fusion (the
// PR 2 engine), and full two-qubit block fusion. It is the
// kernel-sweep-count lever the prepasses pull, recorded by bench/ as
// qsim.kernel_sweeps_per_circuit.
func KernelCounts(c *circuit.Circuit, noise *NoiseModel) (unfused, fused1q, blocked int, err error) {
	for _, cfg := range []struct {
		fuse, fuse2q bool
		out          *int
	}{{false, false, &unfused}, {true, false, &fused1q}, {true, true, &blocked}} {
		prog, cerr := compileProgram(c, noise, cfg.fuse, cfg.fuse2q)
		if cerr != nil {
			return 0, 0, 0, cerr
		}
		*cfg.out = len(prog.ops)
	}
	return unfused, fused1q, blocked, nil
}

// finalizeDiag precomputes the byte-indexed gather LUT of a diagonal
// run once its touched-qubit set is final.
func (op *fusedOp) finalizeDiag(nqubits int) {
	if op.kind != opDiag || op.identity {
		return
	}
	nbytes := (nqubits + 7) / 8
	op.lut = make([][256]uint16, nbytes)
	for b := 0; b < nbytes; b++ {
		l := &op.lut[b]
		// Single-bit entries by scanning the masks; composite values as
		// the OR of their lowest bit and the rest (dynamic programming,
		// so the build is O(256) per byte, not O(256 * touched qubits)).
		for bit := 0; bit < 8; bit++ {
			idx := uint16(0)
			for k, m := range op.masks {
				if (1<<uint(bit+8*b))&m != 0 {
					idx |= 1 << uint(k)
				}
			}
			l[1<<uint(bit)] = idx
		}
		for v := 3; v < 256; v++ {
			if v&(v-1) != 0 {
				l[v] = l[v&-v] | l[v&(v-1)]
			}
		}
	}
}

func (p *program) lastOp() *fusedOp {
	if len(p.ops) == 0 {
		return nil
	}
	return &p.ops[len(p.ops)-1]
}

// lowerGate precomputes one gate's dispatch state and noise probability.
func lowerGate(g circuit.Gate, noise *NoiseModel) (srcGate, error) {
	src := srcGate{op: g.Op, nq: len(g.Qubits), noiseP: gateNoiseP(noise, g)}
	src.q0 = g.Qubits[0]
	if len(g.Qubits) > 1 {
		src.q1 = g.Qubits[1]
	}
	if len(g.Qubits) > 2 {
		src.q2 = g.Qubits[2]
	}
	switch g.Op {
	case circuit.OpCX, circuit.OpCZ, circuit.OpSWAP, circuit.OpCCX:
	case circuit.OpCPhase:
		src.theta = g.Params[0]
	default:
		m, ok := circuit.GateMat2(g)
		if !ok {
			return srcGate{}, fmt.Errorf("qsim: cannot apply op %v", g.Op)
		}
		src.mat = m
	}
	return src, nil
}

// canAbsorb2Q reports whether the open two-qubit block (an opMat4 on
// the pair {q0, q1}) can take gate g: a 1q gate on either pair qubit,
// or a CX/CZ/CPhase/SWAP on exactly the pair.
func (op *fusedOp) canAbsorb2Q(g circuit.Gate) bool {
	switch g.Op {
	case circuit.OpCX, circuit.OpCZ, circuit.OpCPhase, circuit.OpSWAP:
		a, b := g.Qubits[0], g.Qubits[1]
		return (a == op.q0 && b == op.q1) || (a == op.q1 && b == op.q0)
	default:
		return g.Op.NumQubits() == 1 && (g.Qubits[0] == op.q0 || g.Qubits[0] == op.q1)
	}
}

// absorb2Q folds gate g into the block's 4x4 product (left-multiplied:
// later gates act after earlier ones).
func (op *fusedOp) absorb2Q(g circuit.Gate, src srcGate) {
	m, ok := circuit.GateMat4(g, op.q0, op.q1)
	if !ok {
		// canAbsorb2Q guarantees the embedding exists.
		panic(fmt.Sprintf("qsim: unembeddable gate %v in 2q block (%d,%d)", g.Op, op.q0, op.q1))
	}
	op.mat4 = m.Mul(op.mat4)
	op.identity = op.mat4.IsIdentity()
	op.src = append(op.src, src)
}

// open2QBlock tries to start a two-qubit block at a CX/SWAP on the
// pair (a, b) by folding in the trailing fused 1q runs on a and/or b.
// A block only opens when at least one such run is waiting — a bare
// CX/SWAP keeps its cheaper dedicated exchange kernel — so opening
// always strictly reduces the sweep count. Absorbed run matrices are
// multiplied in program order, which preserves both the semantics and
// the noise-draw sequence (src lists concatenate in program order).
func (p *program) open2QBlock(g circuit.Gate, src srcGate) bool {
	a, b := g.Qubits[0], g.Qubits[1]
	n := len(p.ops)
	take := 0
	if n > 0 && p.ops[n-1].kind == opMat2 && (p.ops[n-1].q0 == a || p.ops[n-1].q0 == b) {
		take = 1
		other := a
		if p.ops[n-1].q0 == a {
			other = b
		}
		if n > 1 && p.ops[n-2].kind == opMat2 && p.ops[n-2].q0 == other {
			take = 2
		}
	}
	if take == 0 {
		return false
	}
	block := fusedOp{kind: opMat4, q0: a, q1: b, mat4: circuit.Identity4}
	for k := n - take; k < n; k++ {
		prev := &p.ops[k]
		block.mat4 = circuit.Kron1Q(prev.mat, prev.q0 == b).Mul(block.mat4)
		block.src = append(block.src, prev.src...)
	}
	gm, ok := circuit.GateMat4(g, a, b)
	if !ok {
		return false // unreachable: CX/SWAP on (a, b) always embeds
	}
	block.mat4 = gm.Mul(block.mat4)
	block.identity = block.mat4.IsIdentity()
	block.src = append(block.src, src)
	p.ops = append(p.ops[:n-take], block)
	return true
}

// diagCanAbsorb reports whether the diagonal run can take g without its
// touched-qubit set growing past maxDiagQubits.
func (op *fusedOp) diagCanAbsorb(g circuit.Gate) bool {
	grown := len(op.masks)
	for _, q := range g.Qubits {
		if op.tableBit(q) < 0 {
			grown++
		}
	}
	return grown <= maxDiagQubits
}

// tableBit returns the table-bit index of qubit q, or -1.
func (op *fusedOp) tableBit(q int) int {
	mask := 1 << uint(q)
	for k, m := range op.masks {
		if m == mask {
			return k
		}
	}
	return -1
}

// growTable adds qubit q as a new table bit, doubling the phase table
// (both halves of the new bit start with the run's existing phases).
func (op *fusedOp) growTable(q int) int {
	if len(op.tabRe) == 0 {
		op.tabRe = []float64{1}
		op.tabIm = []float64{0}
	}
	op.masks = append(op.masks, 1<<uint(q))
	op.tabRe = append(op.tabRe, op.tabRe...)
	op.tabIm = append(op.tabIm, op.tabIm...)
	return len(op.masks) - 1
}

// absorbDiag folds one diagonal gate into the run's phase table.
func (op *fusedOp) absorbDiag(g circuit.Gate, src srcGate) {
	op.src = append(op.src, src)
	switch g.Op {
	case circuit.OpCZ, circuit.OpCPhase:
		ph := complex(-1, 0) // CZ
		if g.Op == circuit.OpCPhase {
			if g.Params[0] == 0 {
				return // identity phase: the table, and the sweep, skip it
			}
			ph = cmplx.Exp(complex(0, g.Params[0]))
		}
		ka := op.tableBit(g.Qubits[0])
		if ka < 0 {
			ka = op.growTable(g.Qubits[0])
		}
		kb := op.tableBit(g.Qubits[1])
		if kb < 0 {
			kb = op.growTable(g.Qubits[1])
		}
		sel := 1<<uint(ka) | 1<<uint(kb)
		op.mulWhere(sel, sel, ph)
		op.identity = false
	default:
		d0, d1, _ := circuit.DiagEntries(g)
		if d0 == 1 && d1 == 1 {
			return // identity (id, rz(0)): nothing to fold in
		}
		k := op.tableBit(g.Qubits[0])
		if k < 0 {
			k = op.growTable(g.Qubits[0])
		}
		bit := 1 << uint(k)
		if d0 != 1 {
			op.mulWhere(bit, 0, d0)
		}
		if d1 != 1 {
			op.mulWhere(bit, bit, d1)
		}
		op.identity = false
	}
}

// mulWhere multiplies table entries whose index masked by sel equals
// want by the phase ph.
func (op *fusedOp) mulWhere(sel, want int, ph complex128) {
	pr, pi := real(ph), imag(ph)
	for idx := range op.tabRe {
		if idx&sel != want {
			continue
		}
		ar, ai := op.tabRe[idx], op.tabIm[idx]
		op.tabRe[idx] = ar*pr - ai*pi
		op.tabIm[idx] = ar*pi + ai*pr
	}
}

// applyDiagRange is the phase-table kernel: gather the run's qubit bits
// into a table index (one LUT load per index byte; the upper bytes'
// contribution is hoisted out of each 256-amplitude block) and
// multiply. Entries equal to 1 are skipped so sparse tables (a lone CZ
// touches a quarter of the index space) do not pay for writes they
// would not have made unfused.
//
//qcloud:noalloc
func (s *State) applyDiagRange(op *fusedOp, lo, hi int) {
	re, im := s.re, s.im
	tabRe, tabIm := op.tabRe, op.tabIm
	low := &op.lut[0]
	upper := op.lut[1:]
	for base := lo &^ 255; base < hi; base += 256 {
		hiIdx := uint16(0)
		for b := range upper {
			hiIdx |= upper[b][(base>>uint(8*(b+1)))&255]
		}
		first, last := base, base+256
		if first < lo {
			first = lo
		}
		if last > hi {
			last = hi
		}
		for i := first; i < last; i++ {
			idx := hiIdx | low[i&255]
			pr, pi := tabRe[idx], tabIm[idx]
			if pr == 1 && pi == 0 {
				continue
			}
			ar, ai := re[i], im[i]
			re[i] = ar*pr - ai*pi
			im[i] = ar*pi + ai*pr
		}
	}
}

// rangeKernel is a kernel that can run over part of the state: its
// applyRange updates the amplitudes whose pair, quad or octet base (for
// a diagonal kernel, whose index) lies in [lo, hi), and writes no other
// range's, so the ranges of any split may run in any order or at once.
type rangeKernel interface {
	applyRange(st *State, lo, hi int)
}

// sweep applies k to the whole state: in place for a serial state, else
// split across the kernel shards.
func (s *State) sweep(k rangeKernel) {
	if s.serialKernel() {
		k.applyRange(s, 0, len(s.re))
		return
	}
	s.shard(func(lo, hi int) { k.applyRange(s, lo, hi) })
}

// applyRange applies one lowered source gate over [lo, hi).
//
//qcloud:noalloc
func (g *srcGate) applyRange(st *State, lo, hi int) {
	switch g.op {
	case circuit.OpCX:
		st.applyCXRange(g.q0, g.q1, lo, hi)
	case circuit.OpCZ:
		st.applyCZRange(g.q0, g.q1, lo, hi)
	case circuit.OpCPhase:
		// A zero angle is the identity: no sweep.
		if g.theta != 0 {
			st.applyCPhaseRange(g.q0, g.q1, cmplx.Exp(complex(0, g.theta)), lo, hi)
		}
	case circuit.OpSWAP:
		st.applySWAPRange(g.q0, g.q1, lo, hi)
	case circuit.OpCCX:
		st.applyCCXRange(g.q0, g.q1, g.q2, lo, hi)
	default:
		st.apply1QMatRange(g.mat, g.q0, lo, hi)
	}
}

// applyRange applies the op's fused kernel over [lo, hi): the one
// dispatch from op kind to kernel, which applyFast runs over the whole
// state (or per shard) and evolveExact tile by tile. Measurements and
// resets are no kernel; their executors handle them.
//
//qcloud:noalloc
func (op *fusedOp) applyRange(st *State, lo, hi int) {
	if op.identity {
		return
	}
	switch op.kind {
	case opSrc:
		op.src[0].applyRange(st, lo, hi)
	case opMat2:
		st.apply1QMatRange(op.mat, op.q0, lo, hi)
	case opMat4:
		st.apply2QMatRange(&op.mat4, op.q0, op.q1, lo, hi)
	case opDiag:
		st.applyDiagRange(op, lo, hi)
	}
}

// applyFast applies the op's fused kernel (the no-error path).
//
//qcloud:noalloc
func (op *fusedOp) applyFast(st *State) {
	st.sweep(op)
}

// applySlow replays the op's original gates one by one because the
// noise draw for gate `fired` came up positive: the Pauli must land
// between that gate and the next, which the fused kernel cannot
// represent. Draws for gates before `fired` were already consumed (and
// missed); draws after it happen here, in program order, exactly as the
// unfused engine would have made them.
//
//qcloud:noalloc
func (op *fusedOp) applySlow(st *State, sr *rand.Rand, fired int) {
	for k := range op.src {
		g := &op.src[k]
		st.sweep(g)
		if k < fired {
			continue
		}
		if k > fired && (g.noiseP <= 0 || sr.Float64() >= g.noiseP) {
			continue
		}
		// Uniform non-identity Pauli on a random operand qubit; for 2q
		// errors this is the standard local-depolarizing approximation.
		q := g.qubit(sr.Intn(g.nq))
		switch sr.Intn(3) {
		case 0:
			st.Apply1Q(pauliXMat, q)
		case 1:
			st.Apply1Q(pauliYMat, q)
		default:
			st.Apply1Q(pauliZMat, q)
		}
	}
}

// exec runs one shot of the program on st, writing measurement results
// into clbits. st must be freshly Reset; clbits must be zeroed by the
// caller (unmeasured bits stay 0). The steady-state loop allocates
// nothing.
//
//qcloud:noalloc
func (p *program) exec(st *State, clbits []int, sr *rand.Rand) {
	noisy := p.noisy
	for oi := range p.ops {
		op := &p.ops[oi]
		switch op.kind {
		case opMeasure:
			bit := st.MeasureQubit(op.q0, sr)
			if noisy && sr.Float64() < op.roErr {
				bit ^= 1
			}
			clbits[op.clbit] = bit
		case opReset:
			st.ResetQubit(op.q0, sr)
		default:
			if noisy {
				// Consume the block's noise draws in gate order. Draws are
				// state-independent, so pulling them ahead of the fused
				// kernel leaves the shot's RNG stream identical to the
				// unfused engine's.
				fired := -1
				for j := range op.src {
					if pj := op.src[j].noiseP; pj > 0 && sr.Float64() < pj {
						fired = j
						break
					}
				}
				if fired >= 0 {
					op.applySlow(st, sr, fired)
					continue
				}
			}
			op.applyFast(st)
		}
	}
}
