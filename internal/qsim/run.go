package qsim

import (
	"math/rand"
	"strings"

	"qcloud/internal/circuit"
	"qcloud/internal/par"
)

// Parallelism configures the worker pools of a simulation run. Workers
// is the goroutine target for both the amplitude-kernel shards and the
// trajectory shot pool: 0 takes the process-wide default
// (par.Workers(), i.e. runtime.NumCPU() unless a -workers flag
// overrode it) and 1 forces fully serial execution.
//
// Determinism contract: for a fixed caller seed, Run produces
// bit-identical Counts for every worker count, and the same Counts the unfused engine would. Kernels write the
// same amplitudes regardless of sharding, reductions use size-dependent
// (not worker-dependent) chunk boundaries, each noisy shot derives its
// own RNG stream from the caller's generator rather than sharing it,
// and the fusion prepass never changes a shot's RNG draw sequence (see
// fuse.go).
type Parallelism struct {
	Workers int
}

// workers resolves the effective worker count.
func (p Parallelism) workers() int { return par.Resolve(p.Workers) }

// maxDenseClbits bounds the dense per-worker outcome histogram (2^n
// ints); wider classical registers fall back to map counting.
const maxDenseClbits = 16

// Counts maps classical bitstrings (clbit NClbits-1 leftmost, Qiskit
// style) to observed frequencies.
type Counts map[string]int

// Total returns the number of shots recorded.
func (c Counts) Total() int {
	t := 0
	// Integer addition is exact, so the fold is order-invariant.
	//qcloud:orderinvariant
	for _, n := range c {
		t += n
	}
	return t
}

// Prob returns the empirical probability of the given bitstring.
func (c Counts) Prob(bits string) float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c[bits]) / float64(t)
}

// merge adds other's observations into c.
func (c Counts) merge(other Counts) {
	// Per-key integer addition commutes exactly.
	//qcloud:orderinvariant
	for b, n := range other {
		c[b] += n
	}
}

// bitstring renders clbits as a string with the highest clbit leftmost.
func bitstring(clbits []int) string {
	var b strings.Builder
	for i := len(clbits) - 1; i >= 0; i-- {
		if clbits[i] == 1 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// indexBitstring renders a dense-histogram index (clbit i at bit i) in
// the same highest-clbit-leftmost form as bitstring.
func indexBitstring(idx, nclbits int) string {
	b := make([]byte, nclbits)
	for i := 0; i < nclbits; i++ {
		if idx>>uint(i)&1 == 1 {
			b[nclbits-1-i] = '1'
		} else {
			b[nclbits-1-i] = '0'
		}
	}
	return string(b)
}

// Run executes circuit c for the given number of shots and returns the
// measurement counts, using the process-default parallelism. With a
// nil noise model and no mid-circuit measurement/reset, a single
// state-vector evolution is sampled multinomially; otherwise each shot
// is an independent trajectory.
func Run(c *circuit.Circuit, shots int, noise *NoiseModel, r *rand.Rand) (Counts, error) {
	return RunOpts(c, shots, noise, r, Parallelism{})
}

// RunOpts is Run with an explicit Parallelism: a one-job BatchRun whose
// job draws from r instead of a generator seeded from BatchJob.Seed.
// The circuit is compiled once into a fused op stream and executed
// shot by shot on pooled per-worker state buffers. Counts are
// bit-identical across worker counts for the same caller seed.
func RunOpts(c *circuit.Circuit, shots int, noise *NoiseModel, r *rand.Rand, p Parallelism) (Counts, error) {
	res := runJobs([]BatchJob{{Circ: c, Shots: shots, Noise: noise}}, r, p, fuseCommuting)
	return res[0].Counts, res[0].Err
}

// isTerminalMeasureOnly reports whether every measurement is terminal
// for its own qubit: no unitary (or reset) touches a qubit after it has
// been measured. Such measurements commute to the end of the circuit,
// so a single exact state evolution suffices.
func isTerminalMeasureOnly(c *circuit.Circuit) bool {
	measured := make([]bool, c.NQubits)
	for _, g := range c.Gates {
		switch g.Op {
		case circuit.OpMeasure:
			measured[g.Qubits[0]] = true
		case circuit.OpReset:
			return false
		case circuit.OpBarrier:
		default:
			for _, q := range g.Qubits {
				if q < len(measured) && measured[q] {
					return false
				}
			}
		}
	}
	return true
}

// exactDist is an exact evolution's terminal distribution: the
// cumulative probability over amplitude indices, and the measurements
// that read a sampled index's clbits.
type exactDist struct {
	cum      []float64
	measures []exactMeasure
	nclbits  int
}

// evolveDist evolves st (which must be |0...0> over c.NQubits) through
// the op stream compiled at the given fusion level and sums its
// cumulative distribution into cum, grown if it is too small; the
// returned dist holds it for the caller's next call. The sums are taken
// in index order whatever cum held, so the samples do not depend on it.
func evolveDist(c *circuit.Circuit, level fusion, st *State, cum []float64) (exactDist, error) {
	if c.NQubits < exactFuseMinQubits {
		level = fuseNone
	}
	prog, err := compileProgram(c, nil, level)
	if err != nil {
		return exactDist{cum: cum}, err
	}
	measures := evolveExact(prog, st)
	re, im := st.re, st.im
	if cap(cum) < len(re) {
		cum = make([]float64, len(re))
	}
	cum = cum[:len(re)]
	total := 0.0
	for i := range cum {
		total += re[i]*re[i] + im[i]*im[i]
		cum[i] = total
	}
	return exactDist{cum, measures, c.NClbits}, nil
}

// sample draws shots terminal outcomes multinomially from r, exactly as
// the serial engine did.
func (d *exactDist) sample(shots int, r *rand.Rand) Counts {
	cum := d.cum
	total := cum[len(cum)-1]
	counts := make(Counts)
	clbits := make([]int, d.nclbits)
	for s := 0; s < shots; s++ {
		x := r.Float64() * total
		// Binary search the cumulative distribution.
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		for i := range clbits {
			clbits[i] = 0
		}
		for _, m := range d.measures {
			clbits[m.clbit] = (lo >> uint(m.q)) & 1
		}
		counts[bitstring(clbits)]++
	}
	return counts
}

// exactMeasure is one terminal measurement of an exact evolution.
type exactMeasure struct{ q, clbit int }

// tileQubits sets the tile of tiled evolution: 2^16 amplitudes, whose
// re and im arrays (1 MiB) stay in half of a 2 MiB L2 while a run of ops
// passes over them. A smaller state already stays there and is not
// tiled. Of 13 to 17, 16 timed best on execute's units (DESIGN.md,
// "Tiled evolution"). Only tests change it.
var tileQubits = 16

// evolveExact applies prog's unitary ops to st, which must be |0...0>,
// and returns its terminal measurements in program order. Each op runs
// on the populated prefix of the register: qubits no op has populated
// yet are still |0>, so the first 2^w amplitudes are the w-qubit state
// and the rest are zero, and the op sweeps only those (st is resliced
// to them and restored to its full width before returning). The width
// w starts at 0 and grows by populates.
//
// Every amplitude comes out == to a full-width evolution's. Each kernel
// writes the same value to every amplitude it touches, and amplitudes
// past the prefix are zero in both. They can differ only in sign: +0
// here, where a full-width sweep may write -0 (m*0 - m'*0). Arithmetic
// on ±0 gives results that differ at most in the sign of a zero; ==,
// re²+im² and every count treat the two alike; and no kernel divides.
//
// Once w exceeds tileQubits, a maximal run of consecutive ops that tile
// at w (see tiles) is applied tile by tile (see applyTiled), streaming
// the state through the cache once per run instead of once per op.
//
// Exact path only: trajectories measure through reduce, whose chunk
// boundaries depend on the state's length, so a prefix would regroup
// the ProbOne sums and could move a sampled outcome; and their noise
// draws fall between ops, where a tile has no place to take them.
func evolveExact(prog *program, st *State) []exactMeasure {
	var measures []exactMeasure
	ops := prog.ops
	n, w := st.n, 0
	for oi := 0; oi < len(ops); oi++ {
		op := &ops[oi]
		if op.kind == opMeasure {
			measures = append(measures, exactMeasure{op.q0, op.clbit})
			continue
		}
		grown, run := op.populates(w)
		if !run {
			continue
		}
		w = grown
		st.view(max(w, 1))
		if w <= tileQubits || !op.tiles(w) {
			op.applyFast(st)
			continue
		}
		end := oi + 1
		for end < len(ops) && ops[end].tiles(w) {
			end++
		}
		st.applyTiled(ops[oi:end])
		oi = end - 1
	}
	st.view(n)
	return measures
}

// tiles reports whether op can join a run applied tile by tile at
// populated width w: it runs without widening w, and it is diagonal
// (each amplitude is updated alone) or every qubit it touches is below
// tileQubits, so each pair, quad or octet it updates lies inside one
// 2^tileQubits-aligned tile.
func (op *fusedOp) tiles(w int) bool {
	if op.kind == opMeasure || op.kind == opReset {
		return false
	}
	if grown, run := op.populates(w); !run || grown > w {
		return false
	}
	switch op.kind {
	case opDiag:
		return true
	case opSrc:
		g := &op.src[0]
		if g.op == circuit.OpCZ || g.op == circuit.OpCPhase {
			return true
		}
		return max(g.q0, g.q1, g.q2) < tileQubits
	}
	return max(op.q0, op.q1) < tileQubits
}

// applyTiled applies ops, in order, to one 2^tileQubits-amplitude tile
// after another; a sharded state hands each shard whole tiles. Every
// op's pairs, quads and octets lie inside a tile (tiles), so each
// amplitude meets the same ops in the same order, with the same
// operands, as op-by-op sweeps give it: the result is ==.
func (s *State) applyTiled(ops []fusedOp) {
	n := len(s.re) >> tileQubits
	if s.serialKernel() {
		applyTiles(s, ops, 0, n)
		return
	}
	par.Shard(n, par.Resolve(s.workers), func(lo, hi int) { applyTiles(s, ops, lo, hi) })
}

// applyTiles applies ops to tiles [lo, hi), each tile whole.
//
//qcloud:noalloc
func applyTiles(s *State, ops []fusedOp, lo, hi int) {
	size := 1 << tileQubits
	for t := lo * size; t < hi*size; t += size {
		for k := range ops {
			ops[k].applyRange(s, t, t+size)
		}
	}
}

// populates returns the populated width after op, given that every
// qubit at or above w is still |0>, and whether op has to run: an op
// that is the identity on that support is skipped, and the caller keeps
// w. A diagonal Mat2 populates too — both halves of its pair must lie
// in the view — while phase tables and CZ/CPhase apply on the view as
// they are, where the bits of unpopulated qubits read 0.
func (op *fusedOp) populates(w int) (int, bool) {
	switch op.kind {
	case opMat2:
		return max(w, op.q0+1), !op.identity
	case opMat4:
		return max(w, op.q0+1, op.q1+1), !op.identity
	case opDiag:
		return w, !op.identity
	}
	g := &op.src[0]
	switch g.op {
	case circuit.OpCZ, circuit.OpCPhase:
		return w, true
	case circuit.OpCX:
		// A control still |0> makes it the identity on the support.
		return max(w, g.q1+1), g.q0 < w
	case circuit.OpSWAP:
		return max(w, g.q0+1, g.q1+1), g.q0 < w || g.q1 < w
	case circuit.OpCCX:
		return max(w, g.q2+1), g.q0 < w && g.q1 < w
	}
	return max(w, g.q0+1), true
}

// shotSeed derives shot s's RNG seed from the run's base seed with a
// splitmix64 finalizer, giving every shot a well-separated stream that
// depends only on (base, s) — never on which worker runs it.
func shotSeed(base int64, s int) int64 {
	z := uint64(base) + uint64(s+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// ProbabilityOfSuccess executes c with the given noise and returns the
// fraction of shots yielding the expected bitstring — the paper's "POS"
// metric.
func ProbabilityOfSuccess(c *circuit.Circuit, expected string, shots int, noise *NoiseModel, r *rand.Rand) (float64, error) {
	counts, err := Run(c, shots, noise, r)
	if err != nil {
		return 0, err
	}
	return counts.Prob(expected), nil
}
