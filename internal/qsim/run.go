package qsim

import (
	"fmt"
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
// Determinism contract: for a fixed caller seed (and fixed
// KernelMinAmps), Run produces bit-identical Counts for every worker
// count and whether or not fusion is enabled. Kernels write the same
// amplitudes regardless of sharding, reductions use size-dependent (not
// worker-dependent) chunk boundaries, each noisy shot derives its own
// RNG stream from the caller's generator rather than sharing it, and
// the fusion prepass never changes a shot's RNG draw sequence (see
// fuse.go).
type Parallelism struct {
	Workers int
	// KernelMinAmps overrides the state size at which gate kernels go
	// parallel and reductions go chunked (0 = the package default,
	// 1<<14). Exposed so benchmarks can probe the serial/parallel
	// crossover instead of hardcoding it. Runs with different values
	// are individually deterministic, but — like the seed — the value is
	// part of the fixed configuration the determinism contract assumes,
	// because chunk boundaries move with it.
	KernelMinAmps int
	// DisableFusion skips the fusion prepass and executes one kernel
	// per source gate (the pre-fusion engine). Purely a benchmarking
	// and verification knob: Counts are identical either way.
	DisableFusion bool
	// DisableFusion2Q keeps the 1q-chain and diagonal-run fusion but
	// skips two-qubit block fusion (the PR 2 engine) — an A/B toggle
	// isolating the 2q lever. Implied by DisableFusion; Counts are
	// identical either way.
	DisableFusion2Q bool
}

// fusePasses resolves the (fuse, fuse2q) compile flags.
func (p Parallelism) fusePasses() (fuse, fuse2q bool) {
	fuse = !p.DisableFusion
	return fuse, fuse && !p.DisableFusion2Q
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

// RunOpts is Run with an explicit Parallelism. The circuit is compiled
// once into a fused op stream (unless p.DisableFusion) and executed
// shot by shot on pooled per-worker state buffers. Counts are
// bit-identical across worker counts for the same caller seed.
func RunOpts(c *circuit.Circuit, shots int, noise *NoiseModel, r *rand.Rand, p Parallelism) (Counts, error) {
	if shots <= 0 {
		return nil, fmt.Errorf("qsim: shots must be positive, got %d", shots)
	}
	if usedQubits(c) > MaxQubits {
		return nil, fmt.Errorf("qsim: circuit touches qubits beyond the %d-qubit dense limit", MaxQubits)
	}
	if noise == nil && isTerminalMeasureOnly(c) {
		return runExact(c, shots, r, p)
	}
	return runTrajectories(c, shots, noise, r, p)
}

// usedQubits returns 1 + the largest qubit index referenced (compiled
// circuits are machine-wide, but simulation cost depends on the full
// register width, so callers should compact first when possible).
func usedQubits(c *circuit.Circuit) int {
	return c.NQubits
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

// runExact evolves a fresh state once and samples it; BatchRun calls
// sampleExact directly on its slot's reused state and scratch.
func runExact(c *circuit.Circuit, shots int, r *rand.Rand, p Parallelism) (Counts, error) {
	st, err := NewState(c.NQubits)
	if err != nil {
		return nil, err
	}
	st.SetWorkers(p.Workers).SetKernelMinAmps(p.KernelMinAmps)
	counts, _, err := sampleExact(c, shots, r, p, st, nil)
	return counts, err
}

// sampleExact evolves st (which must be |0...0> over c.NQubits) through
// the fused op stream (with parallel gate kernels) and samples the
// terminal measurement distribution multinomially from the caller's
// generator, exactly as the serial engine did. cum is scratch for the
// cumulative distribution, returned (grown if it was too small) for the
// next call; the sums are taken in index order whatever its origin, so
// the samples do not depend on it.
func sampleExact(c *circuit.Circuit, shots int, r *rand.Rand, p Parallelism, st *State, cum []float64) (Counts, []float64, error) {
	fuse, fuse2q := p.fusePasses()
	fuse = fuse && c.NQubits >= exactFuseMinQubits
	prog, err := compileProgram(c, nil, fuse, fuse && fuse2q)
	if err != nil {
		return nil, cum, err
	}
	type meas struct{ q, clbit int }
	var measures []meas
	for oi := range prog.ops {
		op := &prog.ops[oi]
		if op.kind == opMeasure {
			measures = append(measures, meas{op.q0, op.clbit})
			continue
		}
		op.applyFast(st)
	}
	// Cumulative distribution for sampling.
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
	counts := make(Counts)
	clbits := make([]int, c.NClbits)
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
		for _, m := range measures {
			clbits[m.clbit] = (lo >> uint(m.q)) & 1
		}
		counts[bitstring(clbits)]++
	}
	return counts, cum, nil
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

// runTrajectories runs each shot as an independent noisy trajectory on
// a worker pool. The caller's generator contributes one Int63 draw as
// the base seed; each shot then uses its own derived stream, so the
// merged Counts are identical for any worker count.
//
// Steady-state shot execution is allocation-free: each worker owns one
// State (Reset in place between shots), one reseeded RNG, one clbit
// scratch buffer, and — for registers up to maxDenseClbits — a dense
// outcome histogram that is converted to Counts once at the end.
func runTrajectories(c *circuit.Circuit, shots int, noise *NoiseModel, r *rand.Rand, p Parallelism) (Counts, error) {
	fuse, fuse2q := p.fusePasses()
	prog, err := compileProgram(c, noise, fuse, fuse2q)
	if err != nil {
		return nil, err
	}
	base := r.Int63()
	workers := p.workers()
	if workers > shots {
		workers = shots
	}
	// Shot-level parallelism saturates the CPUs whenever it is active;
	// per-trajectory states then keep their kernels serial. A lone shot
	// (or workers=1 overall) inherits the run's kernel parallelism.
	kernelWorkers := p.Workers
	if workers > 1 {
		kernelWorkers = 1
	}

	type shard struct {
		counts Counts
		err    error
	}
	nShards := workers
	if nShards < 1 {
		nShards = 1
	}
	shards := make([]shard, nShards)
	per := (shots + nShards - 1) / nShards
	par.ForEach(nShards, workers, func(w int) {
		lo, hi := w*per, (w+1)*per
		if hi > shots {
			hi = shots
		}
		local := make(Counts)
		shards[w].counts = local
		if lo >= hi {
			return
		}
		st, err := NewState(c.NQubits)
		if err != nil {
			shards[w].err = err
			return
		}
		st.SetWorkers(kernelWorkers).SetKernelMinAmps(p.KernelMinAmps)
		// lfSource replays exactly the rand.NewSource streams with a
		// ~4x cheaper per-shot reseed (see rngsource.go).
		sr := rand.New(newLFSource())
		clbits := make([]int, c.NClbits)
		var dense []int
		if c.NClbits <= maxDenseClbits {
			dense = make([]int, 1<<uint(c.NClbits))
		}
		for s := lo; s < hi; s++ {
			// Reseeding replays the exact stream rand.NewSource(seed)
			// would produce, without the per-shot source allocation.
			sr.Seed(shotSeed(base, s))
			st.Reset()
			for i := range clbits {
				clbits[i] = 0
			}
			prog.exec(st, clbits, sr)
			if dense != nil {
				idx := 0
				for i, b := range clbits {
					idx |= b << uint(i)
				}
				dense[idx]++
			} else {
				local[bitstring(clbits)]++
			}
		}
		for idx, n := range dense {
			if n > 0 {
				local[indexBitstring(idx, c.NClbits)] = n
			}
		}
	})
	counts := make(Counts)
	for _, sh := range shards {
		if sh.err != nil {
			return nil, sh.err
		}
		counts.merge(sh.counts)
	}
	return counts, nil
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
