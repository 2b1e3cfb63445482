// Gate fusion: circuits are compiled once per Run into a flat op
// stream so the per-shot trajectory loop does zero map lookups, zero
// matrix construction, and far fewer amplitude sweeps.
//
// Four prepasses run during compilation:
//
//   - 1q gates on the same qubit are merged into one precomputed Mat2
//     (the classic rz-sx-rz-sx-rz chains compiled circuits are full of
//     become a single sweep);
//   - gates touching the same qubit pair — 1q gates on either qubit,
//     CX/CZ/CPhase/SWAP on the pair — collapse into one precomputed
//     Mat4 (qsim/qulacs-style 2q block fusion): a compiled
//     rz·sx·rz—cx—rz·sx·rz conjugation becomes a single
//     four-amplitude sweep instead of five to seven;
//   - diagonal gates (I/Z/S/Sdg/T/Tdg/RZ/CZ/CPhase) collapse into a
//     single phase-table kernel: one sweep multiplies each amplitude by
//     a precomputed phase indexed by the gathered bits of the run's
//     touched qubits;
//   - noise-channel probabilities are sampled from the model once per
//     gate at compile time instead of once per gate per shot.
//
// Two fusers apply them. A noisy program compiles with the linear
// fuser, which only ever merges a gate into the newest op, so its ops
// keep the gates in program order. A noise-free program compiles with
// the commuting fuser (commute), which merges a gate into the last op
// on its own qubits wherever that op sits: it moves gates past gates on
// other qubits, which commute with them, and never past a gate,
// measurement or reset on one of its own qubits.
//
// Determinism: fusion never changes the per-shot RNG draw sequence.
// Noise draws are state-independent (a uniform variate compared
// against the gate's precomputed probability), so the executor
// consumes them gate by gate in program order before applying a fused
// kernel; in the rare shot where a draw fires inside a fused block, the
// executor falls back to replaying that block's original gates one by
// one with the Pauli injected in place, exactly as the unfused engine
// would. The commuting fuser reorders no measurement or reset, and a
// noise-free program draws nowhere else. Counts for a fixed seed are
// therefore identical across fused/unfused execution and any worker
// count (fused amplitudes may differ from unfused in the last ulps —
// matrix products associate differently — which leaves every sampled
// outcome unchanged).
package qsim

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"slices"

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
	// opVacated marks, during compilation only, the slot of a fused 1q
	// run that a later two-qubit block took in; compileProgram drops
	// these slots once the stream is complete.
	opVacated
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

// fusion selects compileProgram's prepasses; each level runs every pass
// of the levels below it.
type fusion uint8

const (
	// fuseNone compiles every unitary to its own opSrc: the pre-fusion
	// engine, which small exact evolutions run and the equivalence
	// suites and KernelCounts compare against.
	fuseNone fusion = iota
	// fuse1Q merges 1q chains into Mat2s and diagonal runs into phase
	// tables, each only into the newest op.
	fuse1Q
	// fuseBlocks adds two-qubit blocks (4x4 kernels), still only into
	// the newest op: the linear fuser, which every noisy program
	// compiles with.
	fuseBlocks
	// fuseCommuting folds each gate into the last op on its own qubits,
	// wherever that op sits in the stream (see commute). Production
	// compiles at this level; it applies to noise-free programs only.
	fuseCommuting
)

// compileProgram lowers a circuit into a fused op stream at the given
// fusion level. A noisy program draws its noise in stream order, so
// moving a gate would move its draw: it compiles at fuseBlocks at most,
// to the stream the linear fuser has always given it.
func compileProgram(c *circuit.Circuit, noise *NoiseModel, level fusion) (*program, error) {
	p := &program{nqubits: c.NQubits, nclbits: c.NClbits, noisy: noise != nil}
	p.ops = make([]fusedOp, 0, len(c.Gates))
	var front []int
	if level == fuseCommuting && noise == nil {
		front = make([]int, c.NQubits)
		for q := range front {
			front[q] = -1
		}
	}
	for _, g := range c.Gates {
		switch g.Op {
		case circuit.OpBarrier:
			continue
		case circuit.OpMeasure:
			p.push(front, g.Qubits, fusedOp{
				kind:  opMeasure,
				q0:    g.Qubits[0],
				clbit: g.Clbit,
				roErr: noise.ReadoutError(g.Qubits[0]),
			})
			continue
		case circuit.OpReset:
			p.push(front, g.Qubits, fusedOp{kind: opReset, q0: g.Qubits[0]})
			continue
		}
		src, err := lowerGate(g, noise)
		if err != nil {
			return nil, err
		}
		if front != nil {
			p.commute(front, g, src)
		} else {
			p.fuseNewest(g, src, level >= fuse1Q, level >= fuseBlocks)
		}
	}
	// Blocks leave the slots of the runs they took behind.
	p.ops = slices.DeleteFunc(p.ops, func(op fusedOp) bool { return op.kind == opVacated })
	for oi := range p.ops {
		p.ops[oi].finalizeDiag(c.NQubits)
	}
	return p, nil
}

// fuseNewest is the linear fuser: g joins the newest op or starts a new
// one. With fuse false every unitary becomes its own opSrc; fuse2q
// enables two-qubit blocks, which a noise-free program opens only where
// they pay (blockPays).
func (p *program) fuseNewest(g circuit.Gate, src srcGate, fuse, fuse2q bool) {
	last := p.lastOp()
	switch {
	case fuse && fuse2q && last != nil && last.kind == opMat4 && last.canAbsorb2Q(g):
		// The open two-qubit block takes 1q gates on either pair
		// qubit and CX/CZ/CPhase/SWAP on the pair: one 4x4 product.
		last.absorb2Q(g, src)
	case fuse && len(g.Qubits) == 1 && last != nil && last.kind == opMat2 && last.q0 == g.Qubits[0]:
		// Adjacent 1q gates on the same qubit: one matrix product.
		last.absorb1Q(src)
	case fuse && g.Op.IsDiagonal() && last != nil && last.kind == opDiag && last.diagCanAbsorb(g):
		last.absorbDiag(g, src)
	case fuse && fuse2q && (g.Op == circuit.OpCX || g.Op == circuit.OpSWAP) &&
		(p.noisy || blockPays(g.Qubits[0], g.Qubits[1])) && p.open2QBlock(g, src, p.newestRuns(g)):
		// A non-diagonal 2q gate preceded by fused 1q runs on its
		// qubits: the runs and the gate collapsed into one 4x4 block.
		// A noisy program opens one on any pair, as it always has.
	case fuse && (g.Op == circuit.OpCZ || g.Op == circuit.OpCPhase):
		// 2q diagonal: starts a phase-table run.
		p.ops = append(p.ops, diagOp(g, src))
	case fuse && len(g.Qubits) == 1:
		// Lone 1q gate: seed a Mat2 op so later neighbors merge in.
		p.ops = append(p.ops, mat2Op(src))
	default:
		p.ops = append(p.ops, fusedOp{kind: opSrc, src: []srcGate{src}})
	}
}

// newestRuns finds the fused 1q runs a CX/SWAP on (a, b) opens a block
// from in the linear fuser: the newest op if it is a Mat2 on a or b,
// and the op before it if that is a Mat2 on the other qubit. It returns
// their indices on a and on b, -1 where there is none.
func (p *program) newestRuns(g circuit.Gate) [2]int {
	runs := [2]int{-1, -1}
	for k := len(p.ops) - 1; k >= 0 && k >= len(p.ops)-2; k-- {
		op := &p.ops[k]
		if op.kind != opMat2 {
			break
		}
		i := slices.Index(g.Qubits, op.q0)
		if i < 0 || runs[i] >= 0 {
			break
		}
		runs[i] = k
	}
	return runs
}

// commute is the fuser noise-free programs compile with. front[q] is
// the index of the last op that touches qubit q, -1 while none has.
// Every op after front[q] acts on other qubits only, and gates on
// disjoint qubits commute, so g may join the op at front[q] wherever it
// sits in the stream; a gate on two qubits may join any op at or after
// both of their fronts. Measurements and resets are ops like any
// other, so a gate never moves before one on its own qubit.
func (p *program) commute(front []int, g circuit.Gate, src srcGate) {
	switch len(g.Qubits) {
	case 1:
		q := g.Qubits[0]
		if f := front[q]; f >= 0 && p.ops[f].fold1Q(g, src) {
			return
		}
		if last := p.lastOp(); g.Op.IsDiagonal() && last != nil && last.kind == opDiag && last.diagCanAbsorb(g) {
			last.absorbDiag(g, src)
			front[q] = len(p.ops) - 1
			return
		}
		p.push(front, g.Qubits, mat2Op(src))
	case 2:
		a, b := g.Qubits[0], g.Qubits[1]
		fa, fb := front[a], front[b]
		if fa == fb && fa >= 0 && p.ops[fa].kind == opMat4 {
			// The block on exactly this pair.
			p.ops[fa].absorb2Q(g, src)
			return
		}
		switch g.Op {
		case circuit.OpCZ, circuit.OpCPhase:
			for _, k := range [2]int{max(fa, fb), len(p.ops) - 1} {
				if k >= 0 && p.ops[k].kind == opDiag && p.ops[k].diagCanAbsorb(g) {
					p.ops[k].absorbDiag(g, src)
					front[a], front[b] = k, k
					return
				}
			}
			p.push(front, g.Qubits, diagOp(g, src))
		default:
			run := func(f int) int {
				if f >= 0 && p.ops[f].kind == opMat2 {
					return f
				}
				return -1
			}
			if blockPays(a, b) && p.open2QBlock(g, src, [2]int{run(fa), run(fb)}) {
				front[a], front[b] = len(p.ops)-1, len(p.ops)-1
				return
			}
			p.push(front, g.Qubits, fusedOp{kind: opSrc, src: []srcGate{src}})
		}
	default:
		p.push(front, g.Qubits, fusedOp{kind: opSrc, src: []srcGate{src}})
	}
}

// blockPays reports whether a 4x4 sweep on the pair (a, b) costs less
// than the sweeps a block opened there replaces: the fused 1q runs on a
// and b and the CX/SWAP exchange. That holds where both qubits are 2 or
// more, whose innermost runs are four amplitudes or longer and go to
// run2Q on an AVX2 host (1.6–2.1 ns an amplitude on execute's units,
// against 0.8 for each 2x2 and 0.3 for the exchange); on qubit 0 or 1
// the 4x4 sweep is the scalar loop (5.7–8.1 ns), dearer than the 2x2
// sweeps (in-register there) and the exchange (1.0–1.4 ns) together.
// The rule reads the pair only, not the host, so a circuit compiles to
// the same stream everywhere.
func blockPays(a, b int) bool {
	return min(a, b) >= 2
}

// push appends op, the newest op on qubits; front is commute's, nil
// for the linear fuser.
func (p *program) push(front []int, qubits []int, op fusedOp) {
	p.ops = append(p.ops, op)
	if front != nil {
		for _, q := range qubits {
			front[q] = len(p.ops) - 1
		}
	}
}

// fold1Q folds the 1q gate g into op, the last op on g's qubit, if op
// can take it: a Mat2 (on that qubit), a block (containing it), or,
// for a diagonal g, a phase table with room.
func (op *fusedOp) fold1Q(g circuit.Gate, src srcGate) bool {
	switch {
	case op.kind == opMat2:
		op.absorb1Q(src)
	case op.kind == opMat4:
		op.absorb2Q(g, src)
	case op.kind == opDiag && g.Op.IsDiagonal() && op.diagCanAbsorb(g):
		op.absorbDiag(g, src)
	default:
		return false
	}
	return true
}

// mat2Op seeds a Mat2 op with one 1q gate so later gates on its qubit
// merge in.
func mat2Op(src srcGate) fusedOp {
	return fusedOp{
		kind:     opMat2,
		q0:       src.q0,
		mat:      src.mat,
		identity: src.mat.IsIdentity(),
		src:      []srcGate{src},
	}
}

// diagOp starts a phase-table run at the 2q diagonal gate g.
func diagOp(g circuit.Gate, src srcGate) fusedOp {
	op := fusedOp{kind: opDiag, identity: true}
	op.absorbDiag(g, src)
	return op
}

// absorb1Q folds a 1q gate on the op's qubit into its Mat2 (one matrix
// product, later gates on the left).
func (op *fusedOp) absorb1Q(src srcGate) {
	op.mat = src.mat.Mul(op.mat)
	op.identity = op.mat.IsIdentity()
	op.src = append(op.src, src)
}

// KernelCounts reports the compiled op-stream length of circuit c under
// each fusion setting: no fusion, 1q-chain + diagonal-run fusion, and
// the production compile — two-qubit blocks, fused along each qubit's
// own timeline when noise is nil (a noisy program compiles with the
// linear fuser, which only ever fuses into the newest op). It is the
// kernel-sweep-count lever the prepasses pull, recorded by bench/ as
// qsim.kernel_sweeps_per_circuit.
func KernelCounts(c *circuit.Circuit, noise *NoiseModel) (unfused, fused1q, blocked int, err error) {
	for _, cfg := range []struct {
		level fusion
		out   *int
	}{{fuseNone, &unfused}, {fuse1Q, &fused1q}, {fuseCommuting, &blocked}} {
		prog, cerr := compileProgram(c, noise, cfg.level)
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
		// canAbsorb2Q, or the block being the last op on g's qubits,
		// guarantees the embedding exists.
		panic(fmt.Sprintf("qsim: unembeddable gate %v in 2q block (%d,%d)", g.Op, op.q0, op.q1))
	}
	op.mat4 = m.Mul(op.mat4)
	op.identity = op.mat4.IsIdentity()
	op.src = append(op.src, src)
}

// open2QBlock tries to start a two-qubit block at a CX/SWAP on the
// pair (a, b) by folding in the fused 1q runs at ops runs[0] (on a) and
// runs[1] (on b), -1 for none. A block only opens when at least one such run
// is waiting — a bare CX/SWAP keeps its cheaper dedicated exchange
// kernel — so opening always strictly reduces the sweep count. The runs
// are multiplied in stream order, which preserves both the semantics
// and the noise-draw sequence (src lists concatenate in stream order);
// the block is appended, and the runs' slots are left vacated.
func (p *program) open2QBlock(g circuit.Gate, src srcGate, runs [2]int) bool {
	if runs[0] < 0 && runs[1] < 0 {
		return false
	}
	a, b := g.Qubits[0], g.Qubits[1]
	block := fusedOp{kind: opMat4, q0: a, q1: b, mat4: circuit.Identity4}
	for _, k := range [2]int{min(runs[0], runs[1]), max(runs[0], runs[1])} {
		if k < 0 {
			continue
		}
		run := &p.ops[k]
		block.mat4 = circuit.Kron1Q(run.mat, run.q0 == b).Mul(block.mat4)
		block.src = append(block.src, run.src...)
		*run = fusedOp{kind: opVacated}
	}
	gm, ok := circuit.GateMat4(g, a, b)
	if !ok {
		panic(fmt.Sprintf("qsim: unembeddable gate %v in 2q block (%d,%d)", g.Op, a, b)) // unreachable: CX/SWAP on (a, b) always embeds
	}
	block.mat4 = gm.Mul(block.mat4)
	block.identity = block.mat4.IsIdentity()
	block.src = append(block.src, src)
	p.ops = append(p.ops, block)
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
