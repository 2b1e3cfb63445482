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
//
// Exact jobs whose circuits are equal (sameCircuit) share one unit: it
// evolves the circuit once and samples each job's shots from that one
// distribution with the job's own generator, which is what each job's
// own evolution would have given it.
package qsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"qcloud/internal/circuit"
	"qcloud/internal/par"
	"qcloud/internal/stats"
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
	st    *State
	width int
	// sr is reseeded per job and per shot; stats.Source replays the
	// rand.NewSource streams with a ~4x cheaper reseed and no allocation.
	sr     *rand.Rand
	clbits []int
	dense  []int
	// cum is the exact units' cumulative-distribution scratch.
	cum []float64
}

// source returns the slot's reseedable generator.
func (bw *batchWorker) source() *rand.Rand {
	if bw.sr == nil {
		bw.sr = rand.New(&stats.Source{})
	}
	return bw.sr
}

// rng returns a job's generator: the caller's r when there is one, else
// the slot's generator reseeded to the job's seed.
func (bw *batchWorker) rng(r *rand.Rand, seed int64) *rand.Rand {
	if r != nil {
		return r
	}
	sr := bw.source()
	sr.Seed(seed)
	return sr
}

func (bw *batchWorker) state(n, workers int) (*State, error) {
	if st := bw.st; 0 < n && n <= bw.width {
		st.view(n)
		return st, nil
	}
	st, err := NewState(n)
	if err != nil {
		return nil, err
	}
	st.SetWorkers(workers)
	bw.st, bw.width = st, n
	return st, nil
}

// BatchRun executes every job on one shared trajectory worker pool and
// returns per-job results in input order. Exact-path jobs (no noise,
// terminal measurement only) run as single work units; trajectory jobs
// are split into shot-range units so many small jobs spread across the
// pool instead of nesting serial inner pools. Exact jobs with equal
// circuits share one unit and one evolution.
func BatchRun(jobs []BatchJob, p Parallelism) []BatchResult {
	return runJobs(jobs, nil, p, fuseCommuting)
}

// runJobs is BatchRun and RunOpts. A job's generator contributes its
// trajectory base seed or every exact sample: the caller's r when it is
// not nil (RunOpts' one job), else a pool slot's generator reseeded to
// the job's Seed, which replays rand.NewSource(Seed). level is
// compileProgram's fusion level; production runs fuseCommuting, and the
// equivalence suites lower it to compare against the linear fuser and
// the unfused engine.
func runJobs(jobs []BatchJob, r *rand.Rand, p Parallelism, level fusion) []BatchResult {
	results := make([]BatchResult, len(jobs))
	type jobProg struct {
		prog  *program
		base  int64
		exact bool
	}
	progs := make([]jobProg, len(jobs))
	type unit struct {
		job    int
		lo, hi int // trajectory shot range (unused for exact units)
		// twins are the later exact jobs whose circuits equal job's: the
		// unit samples them from job's evolution.
		twins []int
	}
	var units []unit
	// exactUnit maps a circuit fingerprint to an exact unit with that
	// fingerprint; a hit is confirmed gate by gate.
	var exactUnit map[uint64]int
	// setup draws the trajectory base seeds; pool slot 0 inherits its
	// generator.
	var setup batchWorker
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
			fp := fingerprint(job.Circ)
			if u, ok := exactUnit[fp]; ok && sameCircuit(jobs[units[u].job].Circ, job.Circ) {
				units[u].twins = append(units[u].twins, j)
				continue
			}
			if exactUnit == nil {
				exactUnit = make(map[uint64]int)
			}
			exactUnit[fp] = len(units)
			units = append(units, unit{job: j})
			continue
		}
		prog, err := compileProgram(job.Circ, job.Noise, level)
		if err != nil {
			results[j].Err = err
			continue
		}
		progs[j].prog = prog
		progs[j].base = setup.rng(r, job.Seed).Int63()
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
			units = append(units, unit{job: j, lo: lo, hi: hi})
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
	pool[0].sr = setup.sr
	unitCounts := make([]Counts, len(units))
	unitErrs := make([]error, len(units))
	par.ForEachWorker(len(units), workers, func(w, u int) {
		ut := &units[u]
		job := &jobs[ut.job]
		bw := &pool[w]
		st, err := bw.state(job.Circ.NQubits, kernelWorkers)
		if err != nil {
			unitErrs[u] = err
			return
		}
		if progs[ut.job].exact {
			// One evolution and cumulative sum on the slot's state and
			// scratch; each job samples them with its own generator, and
			// a twin's counts go straight to its result.
			st.Reset()
			dist, err := evolveDist(job.Circ, level, st, bw.cum)
			bw.cum = dist.cum
			if err != nil {
				unitErrs[u] = err
				return
			}
			unitCounts[u] = dist.sample(job.Shots, bw.rng(r, job.Seed))
			for _, j := range ut.twins {
				results[j].Counts = dist.sample(jobs[j].Shots, bw.rng(r, jobs[j].Seed))
			}
			return
		}
		sr := bw.source()
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
				local[indexBitstring(idx, nclbits)] = n
			}
		}
		unitCounts[u] = local
	})
	for u := range units {
		err := unitErrs[u]
		if err == nil {
			continue
		}
		if j := units[u].job; results[j].Err == nil {
			results[j].Err = err
		}
		// An evolution's error is every twin's too.
		for _, j := range units[u].twins {
			results[j].Err = err
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

// fingerprint hashes what sameCircuit compares (FNV-1a over 64-bit
// words): equal circuits hash alike.
func fingerprint(c *circuit.Circuit) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	mix(uint64(c.NQubits))
	mix(uint64(c.NClbits))
	mix(uint64(len(c.Gates)))
	for i := range c.Gates {
		g := &c.Gates[i]
		mix(uint64(g.Op))
		mix(uint64(g.Clbit))
		mix(uint64(len(g.Qubits)))
		for _, q := range g.Qubits {
			mix(uint64(q))
		}
		mix(uint64(len(g.Params)))
		for _, v := range g.Params {
			mix(math.Float64bits(v))
		}
	}
	return h
}

// sameCircuit reports whether a and b run as the same exact evolution
// and sampling: the same pointer, or the same register sizes and the
// same gates — op, qubits, clbit and the bits of every parameter.
func sameCircuit(a, b *circuit.Circuit) bool {
	if a == b {
		return true
	}
	if a.NQubits != b.NQubits || a.NClbits != b.NClbits || len(a.Gates) != len(b.Gates) {
		return false
	}
	for i := range a.Gates {
		g, h := &a.Gates[i], &b.Gates[i]
		if g.Op != h.Op || g.Clbit != h.Clbit || !slices.Equal(g.Qubits, h.Qubits) || len(g.Params) != len(h.Params) {
			return false
		}
		for k, v := range g.Params {
			if math.Float64bits(v) != math.Float64bits(h.Params[k]) {
				return false
			}
		}
	}
	return true
}
