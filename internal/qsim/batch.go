// Batched shot dispatch: analysis sweeps (Fig 7 per machine, Fig 12
// staleness per day) run many small-shot jobs, each of which used to
// spin up its own trajectory pool — with the outer sweep parallel, the
// inner pools were forced serial to keep -workers a real concurrency
// bound. BatchRun instead submits every job's shots into ONE shared
// worker pool: jobs compile up front, shots split into fixed-size work
// units pulled from a shared queue, and each pool slot reuses its
// simulator state (per register width), RNG, and histogram buffers
// across jobs.
//
// Determinism: job j's shot s runs on the stream shotSeed(base_j, s),
// where base_j is the first Int63 of the job's generator, so a job's
// Counts are the same for any worker count and any unit granularity
// (counts merge by commutative integer addition). RunOpts is a one-job
// batch whose generator is the caller's, so BatchRun's job j is
// RunOpts(job.Circ, job.Shots, job.Noise, rand.New(rand.NewSource(job.Seed)), p)
// by construction.
package qsim

import (
	"fmt"
	"math/rand"

	"qcloud/internal/circuit"
	"qcloud/internal/par"
)

// BatchJob is one circuit execution submitted to BatchRun.
type BatchJob struct {
	Circ  *circuit.Circuit
	Shots int
	// Noise is the job's noise model (nil runs noiseless).
	Noise *NoiseModel
	// Seed seeds the job's RNG stream: the job's Counts are
	// bit-identical to RunOpts with rand.New(rand.NewSource(Seed)).
	Seed int64
}

// BatchResult is one job's outcome. Err is per-job: a failing job does
// not abort the rest of the batch.
type BatchResult struct {
	Counts Counts
	Err    error
}

// batchChunkShots is the trajectory work-unit granularity: small enough
// that a handful of 300-shot jobs load-balance across a pool, large
// enough that per-unit bookkeeping (one Counts map) is noise.
const batchChunkShots = 64

// batchWorker owns one pool slot's reusable buffers, shared across
// every unit (and therefore every job) the slot executes.
type batchWorker struct {
	// st is the slot's one simulator state, allocated width qubits wide.
	// A batch may interleave jobs of different widths: state reslices
	// it to each unit's width and reallocates only for a wider one, so a
	// slot retains its widest state (and cum) until BatchRun returns,
	// not one per width. Every user Resets the state before evolving it.
	st     *State
	width  int
	sr     *rand.Rand
	clbits []int
	dense  []int
	// cum is the exact units' cumulative-distribution scratch.
	cum []float64
}

func (bw *batchWorker) state(n, workers, minAmps int) (*State, error) {
	if st := bw.st; 0 < n && n <= bw.width {
		st.view(n)
		return st, nil
	}
	st, err := NewState(n)
	if err != nil {
		return nil, err
	}
	st.SetWorkers(workers).SetKernelMinAmps(minAmps)
	bw.st, bw.width = st, n
	return st, nil
}

// BatchRun executes every job on one shared trajectory worker pool and
// returns per-job results in input order. Exact-path jobs (no noise,
// terminal measurement only) run as single work units; trajectory jobs
// are split into shot-range units so many small jobs spread across the
// pool instead of nesting serial inner pools.
func BatchRun(jobs []BatchJob, p Parallelism) []BatchResult {
	return runJobs(jobs, func(j int) *rand.Rand { return rand.New(rand.NewSource(jobs[j].Seed)) }, p, true, true)
}

// runJobs is BatchRun and RunOpts: gen(j) is job j's generator (called
// once per job, before its trajectory units or inside its exact unit),
// which contributes the trajectory base seed or every exact sample.
// fuse and fuse2q are compileProgram's passes; production runs both,
// and the equivalence suites turn them off to compare against the
// unfused engine.
func runJobs(jobs []BatchJob, gen func(j int) *rand.Rand, p Parallelism, fuse, fuse2q bool) []BatchResult {
	results := make([]BatchResult, len(jobs))
	type jobProg struct {
		prog  *program
		base  int64
		exact bool
	}
	progs := make([]jobProg, len(jobs))
	type unit struct {
		job    int
		lo, hi int // trajectory shot range (unused for exact jobs)
	}
	var units []unit
	workers := p.workers()
	for j := range jobs {
		job := &jobs[j]
		if job.Circ == nil {
			results[j].Err = fmt.Errorf("qsim: batch job %d: nil circuit", j)
			continue
		}
		if job.Shots <= 0 {
			results[j].Err = fmt.Errorf("qsim: batch job %d: shots must be positive, got %d", j, job.Shots)
			continue
		}
		if job.Circ.NQubits > MaxQubits {
			results[j].Err = fmt.Errorf("qsim: batch job %d: register width %d exceeds the %d-qubit dense limit", j, job.Circ.NQubits, MaxQubits)
			continue
		}
		if job.Noise == nil && isTerminalMeasureOnly(job.Circ) {
			progs[j].exact = true
			units = append(units, unit{job: j})
			continue
		}
		prog, err := compileProgram(job.Circ, job.Noise, fuse, fuse2q)
		if err != nil {
			results[j].Err = err
			continue
		}
		progs[j].prog = prog
		progs[j].base = gen(j).Int63()
		// Units spread a job's shots across pool slots; a one-slot pool
		// runs each job as one unit, converting its histogram once.
		chunk := batchChunkShots
		if workers == 1 {
			chunk = job.Shots
		}
		for lo := 0; lo < job.Shots; lo += chunk {
			hi := lo + chunk
			if hi > job.Shots {
				hi = job.Shots
			}
			units = append(units, unit{j, lo, hi})
		}
	}
	if workers > len(units) {
		workers = len(units)
	}
	// Once the unit pool is parallel it saturates the CPUs, so per-unit
	// kernels stay serial; a lone unit inherits the run's kernel
	// parallelism.
	kernelWorkers := p.Workers
	if workers > 1 {
		kernelWorkers = 1
	}
	nSlots := workers
	if nSlots < 1 {
		nSlots = 1
	}
	pool := make([]batchWorker, nSlots)
	unitCounts := make([]Counts, len(units))
	unitErrs := make([]error, len(units))
	par.ForEachWorker(len(units), workers, func(w, u int) {
		ut := units[u]
		job := &jobs[ut.job]
		bw := &pool[w]
		st, err := bw.state(job.Circ.NQubits, kernelWorkers, p.KernelMinAmps)
		if err != nil {
			unitErrs[u] = err
			return
		}
		if progs[ut.job].exact {
			// One evolution + multinomial sampling on the slot's state
			// and scratch, drawing from the job's generator.
			st.Reset()
			unitCounts[u], bw.cum, unitErrs[u] = sampleExact(job.Circ, job.Shots, gen(ut.job), fuse, fuse2q, st, bw.cum)
			return
		}
		if bw.sr == nil {
			// Reseeded per shot; lfSource replays the rand.NewSource
			// streams with a ~4x cheaper reseed (see rngsource.go).
			bw.sr = rand.New(newLFSource())
		}
		nclbits := job.Circ.NClbits
		if cap(bw.clbits) < nclbits {
			bw.clbits = make([]int, nclbits)
		}
		clbits := bw.clbits[:nclbits]
		var dense []int
		if nclbits <= maxDenseClbits {
			if cap(bw.dense) < 1<<uint(nclbits) {
				bw.dense = make([]int, 1<<uint(nclbits))
			}
			dense = bw.dense[:1<<uint(nclbits)]
			clear(dense)
		}
		local := make(Counts)
		prog := progs[ut.job].prog
		base := progs[ut.job].base
		for s := ut.lo; s < ut.hi; s++ {
			bw.sr.Seed(shotSeed(base, s))
			st.Reset()
			for i := range clbits {
				clbits[i] = 0
			}
			prog.exec(st, clbits, bw.sr)
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
				local[indexBitstring(idx, nclbits)] = n
			}
		}
		unitCounts[u] = local
	})
	for u := range units {
		j := units[u].job
		if unitErrs[u] != nil && results[j].Err == nil {
			results[j].Err = unitErrs[u]
		}
	}
	for u := range units {
		j := units[u].job
		switch {
		case results[j].Err != nil:
		case results[j].Counts == nil:
			// The unit's map is its own: adopt it rather than copy it.
			results[j].Counts = unitCounts[u]
		default:
			results[j].Counts.merge(unitCounts[u])
		}
	}
	for j := range results {
		if results[j].Err != nil {
			results[j].Counts = nil
		}
	}
	return results
}
