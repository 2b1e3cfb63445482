// Package qsim is a dense state-vector quantum simulator with
// Monte-Carlo Pauli noise and readout error. It executes the circuits
// produced by the compiler and measures the probability-of-success
// metric of the paper's Fig 7 fidelity study.
//
// The simulator is exact for noiseless circuits; noisy execution runs
// independent trajectories, inserting random Pauli errors after gates
// and flipping measured bits with the calibrated readout error.
//
// Execution is staged for throughput: circuits are compiled once per
// Run into a fused op stream (see fuse.go; 1q chains, 2q blocks, and
// diagonal runs each collapse into single kernels) so the per-shot
// loop does no map lookups or matrix construction, amplitudes live in
// split real/imag (SoA) arrays so kernel sweeps are flat float64
// loops (on amd64 with AVX2 the 2x2, complex 4x4 and CX/SWAP exchange
// sweeps hand their four-lane groups to assembly that is bit-identical
// to those loops; see kernels_amd64.go), exact evolutions run each op
// on the populated prefix of the register and runs of low-qubit and
// diagonal ops tile by tile (see evolveExact in run.go),
// gate kernels shard the amplitude array across
// a goroutine pool once the state is large enough to amortize the
// fan-out, and noisy shots run on a worker pool with deterministic
// per-shot RNG streams (see stats.Source) over pooled state buffers.
// Many small jobs share one pool through BatchRun, which evolves each
// distinct exact circuit of a batch once (see batch.go).
// Results are bit-identical for a fixed seed regardless of worker count
// (see Parallelism in run.go).
package qsim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"qcloud/internal/circuit"
	"qcloud/internal/par"
)

// MaxQubits bounds the dense simulation (2^24 amplitudes = 256 MiB).
const MaxQubits = 24

// kernelMinAmps is the state size below which gate kernels stay serial
// and reductions take one flat pass: goroutine fan-out costs a few
// microseconds, which only pays off once the per-gate sweep is tens of
// microseconds (>= 14 qubits). A var only so tests can force sharded
// kernels on small states; chunk boundaries move with it.
var kernelMinAmps = 1 << 14

// reduceChunk is the fixed block size for chunked reductions (Norm,
// ProbOne). Chunk boundaries depend only on the state size — never on
// the worker count — so the floating-point summation order, and with it
// every sampled measurement outcome, is identical for any -workers.
const reduceChunk = 1 << 13

// State is a dense state vector over n qubits. Qubit q corresponds to
// bit q of the amplitude index (little-endian). Amplitudes are stored
// as split real/imag arrays (structure-of-arrays) so the gate kernels
// compile to flat float64 sweeps.
type State struct {
	n      int
	re, im []float64
	// workers pins the kernel pool size: 0 = process default
	// (par.Workers()), 1 = serial.
	workers int
	// partial is scratch for chunked reductions, reused across calls so
	// the steady-state trajectory loop stays allocation-free.
	partial []float64
}

// NewState returns |0...0> over n qubits.
func NewState(n int) (*State, error) {
	if n < 1 || n > MaxQubits {
		return nil, fmt.Errorf("qsim: %d qubits outside [1,%d]", n, MaxQubits)
	}
	s := &State{n: n, re: make([]float64, 1<<uint(n)), im: make([]float64, 1<<uint(n))}
	s.re[0] = 1
	return s, nil
}

// Reset returns the state to |0...0> in place, so trajectory workers
// can reuse one buffer across shots instead of allocating per shot.
//
//qcloud:noalloc
func (s *State) Reset() {
	clear(s.re)
	clear(s.im)
	s.re[0] = 1
}

// view reslices s to its first 2^k amplitudes as a k-qubit state; k may
// grow back up to the width the arrays were allocated with.
//
//qcloud:noalloc
func (s *State) view(k int) {
	s.n, s.re, s.im = k, s.re[:1<<uint(k)], s.im[:1<<uint(k)]
}

// SetWorkers pins the kernel worker count for this state (0 = process
// default, 1 = serial) and returns s for chaining. Kernels write the
// same amplitudes for any worker count, so this is purely a
// performance knob.
func (s *State) SetWorkers(n int) *State {
	if n < 0 {
		n = 0
	}
	s.workers = n
	return s
}

// serialKernel reports whether kernel sweeps should run in place on the
// calling goroutine. The serial path is taken branch-first (not through
// a closure) so small-state gate application does not allocate.
func (s *State) serialKernel() bool {
	return len(s.re) < kernelMinAmps || par.Resolve(s.workers) <= 1
}

// shard fans a kernel body out across the amplitude index space.
// Shards only ever write amplitudes whose "low" pair index falls inside
// their own range (the partner index is skipped by its owning shard),
// so chunk work is race-free and the result is independent of the
// worker count.
func (s *State) shard(fn func(lo, hi int)) {
	par.Shard(len(s.re), par.Resolve(s.workers), fn)
}

// forRange runs fn over contiguous shards of the amplitude index space,
// in parallel for large states. Used by cold-path sweeps; hot kernels
// branch on serialKernel directly to keep the serial path closure-free.
func (s *State) forRange(fn func(lo, hi int)) {
	if len(s.re) < kernelMinAmps {
		fn(0, len(s.re))
		return
	}
	s.shard(fn)
}

// reduceFn is a chunk reducer: a partial sum over [lo, hi) of some
// per-amplitude quantity, parameterized by one int (e.g. a qubit bit
// mask). Implementations are method expressions so passing them does
// not allocate.
type reduceFn func(s *State, arg, lo, hi int) float64

// reduce sums fn over fixed-size chunks of the index space. Small
// states use one flat pass; large states always use the same chunk
// boundaries whether the partials are computed serially or in
// parallel, keeping the summation order deterministic.
func (s *State) reduce(fn reduceFn, arg int) float64 {
	n := len(s.re)
	if n < kernelMinAmps {
		return fn(s, arg, 0, n)
	}
	nChunks := (n + reduceChunk - 1) / reduceChunk
	if cap(s.partial) < nChunks {
		s.partial = make([]float64, nChunks)
	}
	partial := s.partial[:nChunks]
	chunk := func(c int) {
		lo := c * reduceChunk
		hi := lo + reduceChunk
		if hi > n {
			hi = n
		}
		partial[c] = fn(s, arg, lo, hi)
	}
	if workers := par.Resolve(s.workers); workers <= 1 {
		for c := 0; c < nChunks; c++ {
			chunk(c)
		}
	} else {
		par.ForEach(nChunks, workers, chunk)
	}
	t := 0.0
	for _, p := range partial {
		t += p
	}
	return t
}

// normChunk is the Norm reducer (arg unused).
//
//qcloud:noalloc
func (s *State) normChunk(_, lo, hi int) float64 {
	t := 0.0
	re, im := s.re, s.im
	for i := lo; i < hi; i++ {
		t += re[i]*re[i] + im[i]*im[i]
	}
	return t
}

// Norm returns the squared norm of the state (1 for a valid state).
//
//qcloud:keep the norm probe of the unitarity and sharding tests (qsim_test.go, parallel_test.go)
func (s *State) Norm() float64 {
	return s.reduce((*State).normChunk, 0)
}

// apply1QRange applies a 2x2 unitary to qubit q over the shard whose
// "low" pair indices fall in [lo, hi). Pairs are walked block by block
// (the bit-clear half of each 2*bit-aligned block) so the inner loop is
// a branch-free sequential sweep instead of a skip-half scan.
//
//qcloud:noalloc
func (s *State) apply1QRange(m circuit.Mat2, q, lo, hi int) {
	bit := 1 << uint(q)
	m00r, m00i := real(m[0]), imag(m[0])
	m01r, m01i := real(m[1]), imag(m[1])
	m10r, m10i := real(m[2]), imag(m[2])
	m11r, m11i := real(m[3]), imag(m[3])
	re, im := s.re, s.im
	// Whole four-lane groups of each run (bit long) go to the AVX2 run
	// kernel (see kernels_amd64.go); the loop below is its
	// specification, bit for bit, and finishes what is left. The same
	// hand-off sits in apply1QRealRange, apply2QRange and
	// exchangeQuadsRange. Qubits 0 and 1 have runs under four lanes:
	// their 4-aligned body goes to the in-register kernel whole when the
	// loop reaches it, and the loop does the head and tail.
	vec := hasAVX2 && bit >= 4
	var tab [4][4]float64
	body, end := lowBody(bit, lo, hi)
	if body < end {
		lowLanes(&tab, &m, bit)
	}
	step := bit << 1
	for base := lo &^ (step - 1); base < hi; base += step {
		if base == body {
			run1QLow(&re[base], &im[base], bit, end-body, &tab)
			base = end - step
			continue
		}
		first, last := base, base+bit
		if first < lo {
			first = lo
		}
		if last > hi {
			last = hi
		}
		if n := (last - first) &^ 3; vec && n > 0 {
			run1Q(&re[first], &im[first], bit, n, &m)
			first += n
		}
		for i := first; i < last; i++ {
			j := i | bit
			ar, ai := re[i], im[i]
			br, bi := re[j], im[j]
			re[i] = m00r*ar - m00i*ai + m01r*br - m01i*bi
			im[i] = m00r*ai + m00i*ar + m01r*bi + m01i*br
			re[j] = m10r*ar - m10i*ai + m11r*br - m11i*bi
			im[j] = m10r*ai + m10i*ar + m11r*bi + m11i*br
		}
	}
}

// apply1QRealRange is apply1QRange specialized for matrices with no
// imaginary parts (H, X, RY, ...): half the multiplies, and the real
// and imaginary state halves decouple into independent SIMD-friendly
// streams.
//
//qcloud:noalloc
func (s *State) apply1QRealRange(m circuit.Mat2, q, lo, hi int) {
	bit := 1 << uint(q)
	m00, m01 := real(m[0]), real(m[1])
	m10, m11 := real(m[2]), real(m[3])
	re, im := s.re, s.im
	vec := hasAVX2 && bit >= 4
	var tab [4][4]float64
	body, end := lowBody(bit, lo, hi)
	if body < end {
		lowLanes(&tab, &m, bit)
	}
	step := bit << 1
	for base := lo &^ (step - 1); base < hi; base += step {
		if base == body {
			run1QLowReal(&re[base], &im[base], bit, end-body, &tab)
			base = end - step
			continue
		}
		first, last := base, base+bit
		if first < lo {
			first = lo
		}
		if last > hi {
			last = hi
		}
		if n := (last - first) &^ 3; vec && n > 0 {
			run1QReal(&re[first], &im[first], bit, n, &m)
			first += n
		}
		for i := first; i < last; i++ {
			j := i | bit
			ar, ai := re[i], im[i]
			br, bi := re[j], im[j]
			re[i] = m00*ar + m01*br
			im[i] = m00*ai + m01*bi
			re[j] = m10*ar + m11*br
			im[j] = m10*ai + m11*bi
		}
	}
}

// lowBody returns the span [body, end) of a sweep over [lo, hi) on the
// qubit with mask bit that the in-register kernels take: for bit 1 or 2
// on an AVX2 host, the 4-aligned interior, whose groups of four hold
// whole pairs. Otherwise, or when that span is empty, body is -1, which
// no loop base equals.
func lowBody(bit, lo, hi int) (body, end int) {
	if body, end = (lo+3)&^3, hi&^3; hasAVX2 && bit < 4 && body < end {
		return body, end
	}
	return -1, -1
}

// lowLanes lays m out for the in-register kernels on qubit 0 or 1 (bit 1
// or 2): row k of tab is the coefficient the lane multiplies into the
// k-th product of the Go loop's expression (ar, ai, br, bi for the re
// line), and a lane whose index has bit set is its pair's high element
// j, so it takes m's second row (m10, m11) where a low lane takes the
// first (m00, m01).
//
//qcloud:noalloc
func lowLanes(tab *[4][4]float64, m *circuit.Mat2, bit int) {
	for l := range 4 {
		a, b := m[0], m[1]
		if l&bit != 0 {
			a, b = m[2], m[3]
		}
		tab[0][l], tab[1][l] = real(a), imag(a)
		tab[2][l], tab[3][l] = real(b), imag(b)
	}
}

// isRealMat reports whether every entry of m is real.
func isRealMat(m circuit.Mat2) bool {
	return imag(m[0]) == 0 && imag(m[1]) == 0 && imag(m[2]) == 0 && imag(m[3]) == 0
}

// apply1QMatRange is apply1QRealRange for a real m and apply1QRange
// otherwise.
//
//qcloud:noalloc
func (s *State) apply1QMatRange(m circuit.Mat2, q, lo, hi int) {
	if isRealMat(m) {
		s.apply1QRealRange(m, q, lo, hi)
		return
	}
	s.apply1QRange(m, q, lo, hi)
}

// Apply1Q applies a 2x2 unitary to qubit q.
func (s *State) Apply1Q(m circuit.Mat2, q int) {
	if s.serialKernel() {
		s.apply1QMatRange(m, q, 0, len(s.re))
		return
	}
	s.shard(func(lo, hi int) { s.apply1QMatRange(m, q, lo, hi) })
}

// apply2QRange applies a 4x4 unitary to the pair (q0, q1) over the
// shard whose quad-base indices (both pair bits clear) fall in
// [lo, hi). The four gathered amplitudes of base i are (i, i|b0, i|b1,
// i|b0|b1), matching Mat4's |b1 b0> basis. Bases are walked with
// two-level bit-aligned block iteration — branch-free inner sweeps, no
// skip-scanning — and every amplitude of a quad is written only by the
// shard owning the base index, so sharded sweeps are race-free.
//
//qcloud:noalloc
func (s *State) apply2QRange(m *circuit.Mat4, q0, q1, lo, hi int) {
	b0, b1 := 1<<uint(q0), 1<<uint(q1)
	var mr, mi [16]float64
	for k, v := range m {
		mr[k], mi[k] = real(v), imag(v)
	}
	re, im := s.re, s.im
	bl, bh := b0, b1
	if bl > bh {
		bl, bh = bh, bl
	}
	// The run kernel's matrix operand, built only when the sweep has
	// runs (bl long) that reach four lanes.
	var tab [32][4]float64
	vec := hasAVX2 && bl >= 4
	if vec {
		lanes4(tab[:16], &mr)
		lanes4(tab[16:], &mi)
	}
	stepH, stepL := bh<<1, bl<<1
	for baseH := lo &^ (stepH - 1); baseH < hi; baseH += stepH {
		hFirst, hLast := baseH, baseH+bh
		if hFirst < lo {
			hFirst = lo
		}
		if hLast > hi {
			hLast = hi
		}
		for baseL := hFirst &^ (stepL - 1); baseL < hLast; baseL += stepL {
			first, last := baseL, baseL+bl
			if first < hFirst {
				first = hFirst
			}
			if last > hLast {
				last = hLast
			}
			if n := (last - first) &^ 3; vec && n > 0 {
				run2Q(&re[first], &im[first], b0, b1, n, &tab)
				first += n
			}
			for i := first; i < last; i++ {
				i1, i2 := i|b0, i|b1
				i3 := i1 | b1
				a0r, a0i := re[i], im[i]
				a1r, a1i := re[i1], im[i1]
				a2r, a2i := re[i2], im[i2]
				a3r, a3i := re[i3], im[i3]
				re[i] = mr[0]*a0r - mi[0]*a0i + mr[1]*a1r - mi[1]*a1i + mr[2]*a2r - mi[2]*a2i + mr[3]*a3r - mi[3]*a3i
				im[i] = mr[0]*a0i + mi[0]*a0r + mr[1]*a1i + mi[1]*a1r + mr[2]*a2i + mi[2]*a2r + mr[3]*a3i + mi[3]*a3r
				re[i1] = mr[4]*a0r - mi[4]*a0i + mr[5]*a1r - mi[5]*a1i + mr[6]*a2r - mi[6]*a2i + mr[7]*a3r - mi[7]*a3i
				im[i1] = mr[4]*a0i + mi[4]*a0r + mr[5]*a1i + mi[5]*a1r + mr[6]*a2i + mi[6]*a2r + mr[7]*a3i + mi[7]*a3r
				re[i2] = mr[8]*a0r - mi[8]*a0i + mr[9]*a1r - mi[9]*a1i + mr[10]*a2r - mi[10]*a2i + mr[11]*a3r - mi[11]*a3i
				im[i2] = mr[8]*a0i + mi[8]*a0r + mr[9]*a1i + mi[9]*a1r + mr[10]*a2i + mi[10]*a2r + mr[11]*a3i + mi[11]*a3r
				re[i3] = mr[12]*a0r - mi[12]*a0i + mr[13]*a1r - mi[13]*a1i + mr[14]*a2r - mi[14]*a2i + mr[15]*a3r - mi[15]*a3i
				im[i3] = mr[12]*a0i + mi[12]*a0r + mr[13]*a1i + mi[13]*a1r + mr[14]*a2i + mi[14]*a2r + mr[15]*a3i + mi[15]*a3r
			}
		}
	}
}

// apply2QRealRange is apply2QRange specialized for matrices with no
// imaginary parts: half the multiplies, and the real and imaginary
// state halves decouple into independent streams. It has no run kernel:
// where run2Q can take a sweep's runs, a real matrix goes to
// apply2QRange instead (apply2QMatRange), and this loop runs only on
// pairs with qubit 0 or 1 and off AVX2.
//
//qcloud:noalloc
func (s *State) apply2QRealRange(m *circuit.Mat4, q0, q1, lo, hi int) {
	b0, b1 := 1<<uint(q0), 1<<uint(q1)
	var mr [16]float64
	for k, v := range m {
		mr[k] = real(v)
	}
	re, im := s.re, s.im
	bl, bh := b0, b1
	if bl > bh {
		bl, bh = bh, bl
	}
	stepH, stepL := bh<<1, bl<<1
	for baseH := lo &^ (stepH - 1); baseH < hi; baseH += stepH {
		hFirst, hLast := baseH, baseH+bh
		if hFirst < lo {
			hFirst = lo
		}
		if hLast > hi {
			hLast = hi
		}
		for baseL := hFirst &^ (stepL - 1); baseL < hLast; baseL += stepL {
			first, last := baseL, baseL+bl
			if first < hFirst {
				first = hFirst
			}
			if last > hLast {
				last = hLast
			}
			for i := first; i < last; i++ {
				i1, i2 := i|b0, i|b1
				i3 := i1 | b1
				a0r, a0i := re[i], im[i]
				a1r, a1i := re[i1], im[i1]
				a2r, a2i := re[i2], im[i2]
				a3r, a3i := re[i3], im[i3]
				re[i] = mr[0]*a0r + mr[1]*a1r + mr[2]*a2r + mr[3]*a3r
				im[i] = mr[0]*a0i + mr[1]*a1i + mr[2]*a2i + mr[3]*a3i
				re[i1] = mr[4]*a0r + mr[5]*a1r + mr[6]*a2r + mr[7]*a3r
				im[i1] = mr[4]*a0i + mr[5]*a1i + mr[6]*a2i + mr[7]*a3i
				re[i2] = mr[8]*a0r + mr[9]*a1r + mr[10]*a2r + mr[11]*a3r
				im[i2] = mr[8]*a0i + mr[9]*a1i + mr[10]*a2i + mr[11]*a3i
				re[i3] = mr[12]*a0r + mr[13]*a1r + mr[14]*a2r + mr[15]*a3r
				im[i3] = mr[12]*a0i + mr[13]*a1i + mr[14]*a2i + mr[15]*a3i
			}
		}
	}
}

// lanes4 replicates each of src's scalars into the four lanes of the
// matching dst entry: the 4x4 run kernels multiply from these.
//
//qcloud:noalloc
func lanes4(dst [][4]float64, src *[16]float64) {
	for k, v := range src {
		dst[k] = [4]float64{v, v, v, v}
	}
}

// isRealMat4 reports whether every entry of m is real.
func isRealMat4(m *circuit.Mat4) bool {
	for _, v := range m {
		if imag(v) != 0 {
			return false
		}
	}
	return true
}

// Apply2Q applies a 4x4 unitary to the ordered qubit pair (q0, q1):
// q0 is the matrix's low basis bit b0 and q1 the high bit b1 (see
// circuit.Mat4). The two qubits must be distinct.
//
//qcloud:keep the sharded 4x4 entry fuse2q_test.go and TestKernelShardingMatchesSerial check the block kernels through
func (s *State) Apply2Q(m circuit.Mat4, q0, q1 int) {
	if q0 == q1 {
		panic("qsim: Apply2Q requires distinct qubits")
	}
	if s.serialKernel() {
		s.apply2QMatRange(&m, q0, q1, 0, len(s.re))
		return
	}
	s.shard(func(lo, hi int) { s.apply2QMatRange(&m, q0, q1, lo, hi) })
}

// apply2QMatRange is apply2QRealRange for a real m and apply2QRange
// otherwise, except where apply2QRange hands its runs to run2Q (an AVX2
// host, both qubits >= 2): there a real m goes to apply2QRange too.
// With every imaginary part zero its loop computes the real loop's sums
// with zero terms between them, so each amplitude comes out == to the
// real loop's (at most a zero's sign differs), at 2.1 ns an amplitude
// where the real loop takes 2.9–3.5 on execute's units.
//
//qcloud:noalloc
func (s *State) apply2QMatRange(m *circuit.Mat4, q0, q1, lo, hi int) {
	if isRealMat4(m) && !(hasAVX2 && min(q0, q1) >= 2) {
		s.apply2QRealRange(m, q0, q1, lo, hi)
		return
	}
	s.apply2QRange(m, q0, q1, lo, hi)
}

// applyCXRange exchanges the target pair of every index whose control
// bit is set: quad base i (both bits clear) owns i|cb and i|cb|tb.
//
//qcloud:noalloc
func (s *State) applyCXRange(ctrl, tgt, lo, hi int) {
	cb, tb := 1<<uint(ctrl), 1<<uint(tgt)
	s.exchangeQuadsRange(cb, tb, cb, cb|tb, lo, hi)
}

// ApplyCX applies a controlled-X with the given control and target.
func (s *State) ApplyCX(ctrl, tgt int) {
	if s.serialKernel() {
		s.applyCXRange(ctrl, tgt, 0, len(s.re))
		return
	}
	s.shard(func(lo, hi int) { s.applyCXRange(ctrl, tgt, lo, hi) })
}

//qcloud:noalloc
func (s *State) applyCZRange(a, b, lo, hi int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	re, im := s.re, s.im
	for i := lo; i < hi; i++ {
		if i&ab != 0 && i&bb != 0 {
			re[i] = -re[i]
			im[i] = -im[i]
		}
	}
}

// ApplyCZ applies a controlled-Z on the pair (a, b).
func (s *State) ApplyCZ(a, b int) {
	if s.serialKernel() {
		s.applyCZRange(a, b, 0, len(s.re))
		return
	}
	s.shard(func(lo, hi int) { s.applyCZRange(a, b, lo, hi) })
}

//qcloud:noalloc
func (s *State) applyCPhaseRange(a, b int, ph complex128, lo, hi int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	pr, pi := real(ph), imag(ph)
	re, im := s.re, s.im
	for i := lo; i < hi; i++ {
		if i&ab != 0 && i&bb != 0 {
			ar, ai := re[i], im[i]
			re[i] = ar*pr - ai*pi
			im[i] = ar*pi + ai*pr
		}
	}
}

// ApplyCPhase applies a controlled phase rotation of theta. A zero
// theta is the identity, so the sweep is skipped entirely.
func (s *State) ApplyCPhase(a, b int, theta float64) {
	if theta == 0 {
		return
	}
	ph := cmplx.Exp(complex(0, theta))
	if s.serialKernel() {
		s.applyCPhaseRange(a, b, ph, 0, len(s.re))
		return
	}
	s.shard(func(lo, hi int) { s.applyCPhaseRange(a, b, ph, lo, hi) })
}

// applySWAPRange exchanges the (a=1,b=0) and (a=0,b=1) amplitudes:
// quad base i owns i|ab and i|bb.
//
//qcloud:noalloc
func (s *State) applySWAPRange(a, b, lo, hi int) {
	ab, bb := 1<<uint(a), 1<<uint(b)
	s.exchangeQuadsRange(ab, bb, ab, bb, lo, hi)
}

// exchangeQuadsRange swaps amplitudes i|p and i|q for every quad base i
// (bits b0 and b1 both clear) in [lo, hi); p and q are subsets of
// b0|b1. Like apply2QRange it walks the bases with two-level
// bit-aligned block iteration — a quarter of the index space,
// branch-free — instead of skip-scanning it; a shard owning base i
// writes only i|p and i|q, which no other shard enumerates, so sharded
// sweeps stay race-free.
//
//qcloud:noalloc
func (s *State) exchangeQuadsRange(b0, b1, p, q, lo, hi int) {
	re, im := s.re, s.im
	bl, bh := b0, b1
	if bl > bh {
		bl, bh = bh, bl
	}
	// Bases in a run have both bits clear, so i|p is i+p: the run kernel
	// exchanges whole four-lane groups at those offsets.
	vec := hasAVX2 && bl >= 4
	stepH, stepL := bh<<1, bl<<1
	for baseH := lo &^ (stepH - 1); baseH < hi; baseH += stepH {
		hFirst, hLast := baseH, baseH+bh
		if hFirst < lo {
			hFirst = lo
		}
		if hLast > hi {
			hLast = hi
		}
		for baseL := hFirst &^ (stepL - 1); baseL < hLast; baseL += stepL {
			first, last := baseL, baseL+bl
			if first < hFirst {
				first = hFirst
			}
			if last > hLast {
				last = hLast
			}
			if n := (last - first) &^ 3; vec && n > 0 {
				runSwap(&re[first], &im[first], p, q, n)
				first += n
			}
			for i := first; i < last; i++ {
				x, y := i|p, i|q
				re[x], re[y] = re[y], re[x]
				im[x], im[y] = im[y], im[x]
			}
		}
	}
}

// ApplySWAP exchanges qubits a and b.
func (s *State) ApplySWAP(a, b int) {
	if s.serialKernel() {
		s.applySWAPRange(a, b, 0, len(s.re))
		return
	}
	s.shard(func(lo, hi int) { s.applySWAPRange(a, b, lo, hi) })
}

// applyCCXRange flips the target amplitude pairs where both controls
// are set. Octet bases (all three bits clear) are walked with
// three-level bit-aligned block iteration — an eighth of the index
// space, branch-free — instead of condition-scanning every index. A
// shard owning base i writes only i|b1|b2 and i|b1|b2|tb, which no
// other shard enumerates.
//
//qcloud:noalloc
func (s *State) applyCCXRange(c1, c2, tgt, lo, hi int) {
	b1, b2, tb := 1<<uint(c1), 1<<uint(c2), 1<<uint(tgt)
	re, im := s.re, s.im
	set := b1 | b2
	s0, s1, s2 := b1, b2, tb
	if s0 > s1 {
		s0, s1 = s1, s0
	}
	if s1 > s2 {
		s1, s2 = s2, s1
	}
	if s0 > s1 {
		s0, s1 = s1, s0
	}
	step2, step1, step0 := s2<<1, s1<<1, s0<<1
	for base2 := lo &^ (step2 - 1); base2 < hi; base2 += step2 {
		f2, l2 := base2, base2+s2
		if f2 < lo {
			f2 = lo
		}
		if l2 > hi {
			l2 = hi
		}
		for base1 := f2 &^ (step1 - 1); base1 < l2; base1 += step1 {
			f1, l1 := base1, base1+s1
			if f1 < f2 {
				f1 = f2
			}
			if l1 > l2 {
				l1 = l2
			}
			for base0 := f1 &^ (step0 - 1); base0 < l1; base0 += step0 {
				first, last := base0, base0+s0
				if first < f1 {
					first = f1
				}
				if last > l1 {
					last = l1
				}
				for i := first; i < last; i++ {
					p := i | set
					q := p | tb
					re[p], re[q] = re[q], re[p]
					im[p], im[q] = im[q], im[p]
				}
			}
		}
	}
}

// ApplyCCX applies a Toffoli gate.
func (s *State) ApplyCCX(c1, c2, tgt int) {
	if s.serialKernel() {
		s.applyCCXRange(c1, c2, tgt, 0, len(s.re))
		return
	}
	s.shard(func(lo, hi int) { s.applyCCXRange(c1, c2, tgt, lo, hi) })
}

// probOneChunk is the ProbOne reducer; arg is the qubit's bit mask.
//
//qcloud:noalloc
func (s *State) probOneChunk(bit, lo, hi int) float64 {
	p := 0.0
	re, im := s.re, s.im
	for i := lo; i < hi; i++ {
		if i&bit != 0 {
			p += re[i]*re[i] + im[i]*im[i]
		}
	}
	return p
}

// ProbOne returns the probability of measuring qubit q as 1.
func (s *State) ProbOne(q int) float64 {
	return s.reduce((*State).probOneChunk, 1<<uint(q))
}

// MeasureQubit samples qubit q, collapses the state, renormalizes, and
// returns the outcome.
func (s *State) MeasureQubit(q int, r *rand.Rand) int {
	p1 := s.ProbOne(q)
	outcome := 0
	if r.Float64() < p1 {
		outcome = 1
	}
	s.collapse(q, outcome, p1)
	return outcome
}

//qcloud:noalloc
func (s *State) collapseRange(bit, outcome int, scale float64, lo, hi int) {
	re, im := s.re, s.im
	for i := lo; i < hi; i++ {
		if (i&bit != 0) != (outcome == 1) {
			re[i], im[i] = 0, 0
		} else {
			re[i] *= scale
			im[i] *= scale
		}
	}
}

func (s *State) collapse(q, outcome int, p1 float64) {
	bit := 1 << uint(q)
	p := p1
	if outcome == 0 {
		p = 1 - p1
	}
	if p <= 0 {
		p = 1e-300 // numerically impossible branch; avoid div by zero
	}
	scale := 1 / math.Sqrt(p)
	if s.serialKernel() {
		s.collapseRange(bit, outcome, scale, 0, len(s.re))
		return
	}
	s.shard(func(lo, hi int) { s.collapseRange(bit, outcome, scale, lo, hi) })
}

// ResetQubit measures q and flips it to |0> if needed.
func (s *State) ResetQubit(q int, r *rand.Rand) {
	if s.MeasureQubit(q, r) == 1 {
		s.Apply1Q(pauliXMat, q)
	}
}

// ApplyGate dispatches one circuit gate onto the state. Measurement,
// reset, and barrier are not handled here — Run owns those.
//
//qcloud:keep the gate-by-gate oracle referenceExact and referenceTrajectories (fuse_test.go) hold the run paths to
func (s *State) ApplyGate(g circuit.Gate) error {
	switch g.Op {
	case circuit.OpCX:
		s.ApplyCX(g.Qubits[0], g.Qubits[1])
	case circuit.OpCZ:
		s.ApplyCZ(g.Qubits[0], g.Qubits[1])
	case circuit.OpCPhase:
		s.ApplyCPhase(g.Qubits[0], g.Qubits[1], g.Params[0])
	case circuit.OpSWAP:
		s.ApplySWAP(g.Qubits[0], g.Qubits[1])
	case circuit.OpCCX:
		s.ApplyCCX(g.Qubits[0], g.Qubits[1], g.Qubits[2])
	case circuit.OpBarrier:
		// no-op
	default:
		m, ok := circuit.GateMat2(g)
		if !ok {
			return fmt.Errorf("qsim: cannot apply op %v", g.Op)
		}
		s.Apply1Q(m, g.Qubits[0])
	}
	return nil
}

// Probabilities returns the |amp|² distribution over basis states.
//
//qcloud:keep the distribution probe equivalence_test.go and parallel_test.go compare states by
func (s *State) Probabilities() []float64 {
	ps := make([]float64, len(s.re))
	s.forRange(func(lo, hi int) {
		re, im := s.re, s.im
		for i := lo; i < hi; i++ {
			ps[i] = re[i]*re[i] + im[i]*im[i]
		}
	})
	return ps
}
