package qsim

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
)

// batchCases builds a mixed batch: trajectory jobs of different widths
// and noise levels, an exact-path job (no noise, terminal measures),
// and a mid-measure trajectory job, with well-separated seeds.
func batchCases() []BatchJob {
	return []BatchJob{
		{Circ: gens.QFTBench(4), Shots: 300, Noise: UniformNoise(0.002, 0.02, 0.02), Seed: 11},
		{Circ: gens.GHZ(5), Shots: 150, Noise: UniformNoise(0.004, 0.05, 0.03), Seed: 22},
		{Circ: gens.QFTBench(6), Shots: 90, Noise: UniformNoise(0.01, 0.03, 0.01), Seed: 33},
		{Circ: gens.GHZ(3), Shots: 500, Noise: nil, Seed: 44},         // exact path
		{Circ: trajectoryCircuit(), Shots: 200, Noise: nil, Seed: 55}, // mid-measure trajectories
		{Circ: conjugationCircuit(5, 8), Shots: 120, Noise: UniformNoise(0.01, 0.04, 0.02), Seed: 66},
	}
}

// TestBatchRunMatchesPerJobRuns is the batching determinism contract:
// every job's Counts are bit-identical to an independent per-job oracle
// seeded from rand.NewSource(job.Seed) — the fresh-state-per-shot
// reference engine for trajectory jobs, referenceExact for exact ones —
// for any shared-pool worker count: the shared pool changes scheduling
// only, never results.
func TestBatchRunMatchesPerJobRuns(t *testing.T) {
	jobs := batchCases()
	want := make([]Counts, len(jobs))
	for j, job := range jobs {
		if job.Noise == nil && isTerminalMeasureOnly(job.Circ) {
			want[j] = referenceExact(t, job.Circ, job.Shots, job.Seed)
		} else {
			want[j] = referenceTrajectories(t, job.Circ, job.Shots, job.Noise, job.Seed)
		}
	}
	for _, w := range []int{1, 2, 3, runtime.NumCPU()} {
		got := BatchRun(jobs, Parallelism{Workers: w})
		if len(got) != len(jobs) {
			t.Fatalf("workers=%d: %d results for %d jobs", w, len(got), len(jobs))
		}
		for j := range jobs {
			if got[j].Err != nil {
				t.Fatalf("workers=%d job %d: %v", w, j, got[j].Err)
			}
			if !reflect.DeepEqual(want[j], got[j].Counts) {
				t.Fatalf("workers=%d job %d: batched counts diverge from per-job pool:\n%v\nvs\n%v",
					w, j, got[j].Counts, want[j])
			}
		}
	}
}

// TestBatchRunExactJobsReuseState interleaves exact jobs of different
// widths, so a slot evolves each GHZ circuit on its one state, resliced
// from what a dense circuit at least as wide left behind, and samples
// it through scratch last sized for another width: a stale amplitude
// would be silent divergence from the standalone run.
func TestBatchRunExactJobsReuseState(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	jobs := []BatchJob{
		{Circ: gens.HardwareEfficientAnsatz(r, 12, 2), Shots: 400, Seed: 1},
		{Circ: gens.QFT(5), Shots: 200, Seed: 2},
		{Circ: gens.GHZ(12), Shots: 300, Seed: 3},
		{Circ: gens.HardwareEfficientAnsatz(r, 16, 2), Shots: 500, Seed: 4},
		{Circ: gens.GHZ(5), Shots: 250, Seed: 5},
	}
	for _, w := range []int{1, 2} {
		got := BatchRun(jobs, Parallelism{Workers: w})
		for j, job := range jobs {
			want, err := RunOpts(job.Circ, job.Shots, nil, rand.New(rand.NewSource(job.Seed)), Parallelism{Workers: 1})
			if err != nil {
				t.Fatalf("job %d reference: %v", j, err)
			}
			if got[j].Err != nil {
				t.Fatalf("workers=%d job %d: %v", w, j, got[j].Err)
			}
			if !reflect.DeepEqual(want, got[j].Counts) {
				t.Fatalf("workers=%d job %d (%d qubits): batched counts diverge from standalone RunOpts:\n%v\nvs\n%v",
					w, j, job.Circ.NQubits, got[j].Counts, want)
			}
		}
	}
}

// TestBatchRunFusionToggles checks the batch path gives the same counts
// with compileProgram's fusion passes on or off.
func TestBatchRunFusionToggles(t *testing.T) {
	jobs := batchCases()
	base := BatchRun(jobs, Parallelism{Workers: 2})
	for _, w := range []int{2, runtime.NumCPU()} {
		for _, mode := range fusionModes {
			got := runJobs(jobs, nil, Parallelism{Workers: w}, mode.level)
			for j := range jobs {
				if got[j].Err != nil {
					t.Fatalf("job %d (%s, workers=%d): %v", j, mode.name, w, got[j].Err)
				}
				if !reflect.DeepEqual(base[j].Counts, got[j].Counts) {
					t.Fatalf("job %d: counts change under %s at workers=%d:\n%v\nvs\n%v",
						j, mode.name, w, got[j].Counts, base[j].Counts)
				}
			}
		}
	}
}

// TestExactPrefixRestoresSlotWidth runs a narrow-prefix exact unit (a
// 12-qubit register whose ops populate two qubits) after a wider one on
// the same slot, then the wide one again: each leaves the slot's state
// at its unit's full width with the slot's widest arrays behind it, and
// samples what a fresh state would.
func TestExactPrefixRestoresSlotWidth(t *testing.T) {
	wide := gens.HardwareEfficientAnsatz(rand.New(rand.NewSource(4)), 14, 2)
	narrow := circuit.New("narrow", 12)
	narrow.H(0).CX(0, 1).MeasureAll()
	var bw batchWorker
	for k, c := range []*circuit.Circuit{wide, narrow, wide} {
		st, err := bw.state(c.NQubits, 1)
		if err != nil {
			t.Fatal(err)
		}
		st.Reset()
		dist, err := evolveDist(c, fuseCommuting, st, bw.cum)
		if err != nil {
			t.Fatal(err)
		}
		bw.cum = dist.cum
		got := dist.sample(300, rand.New(rand.NewSource(int64(k))))
		n := c.NQubits
		if st.n != n || len(st.re) != 1<<n || len(st.im) != 1<<n || cap(st.re) != 1<<14 {
			t.Fatalf("unit %d (%d qubits): slot state left at n=%d len=%d/%d cap=%d",
				k, n, st.n, len(st.re), len(st.im), cap(st.re))
		}
		want, err := RunOpts(c, 300, nil, rand.New(rand.NewSource(int64(k))), Parallelism{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("unit %d (%d qubits): reused slot samples\n%v\nwant\n%v", k, n, got, want)
		}
	}
}

// TestBatchRunSharedCircuits pins exact-unit dedup: jobs whose circuits
// are the same pointer or structurally equal share one evolution, yet
// every job's result is its own one-job BatchRun's — with its own shots
// and seed — at 1 and 4 workers. A near-twin one parameter bit apart
// does not merge, a noisy copy stays a trajectory job, an evolution
// error reaches every copy, and a zero-shot copy fails alone.
func TestBatchRunSharedCircuits(t *testing.T) {
	qft := gens.QFT(12)
	ansatz := func() *circuit.Circuit { return gens.HardwareEfficientAnsatz(rand.New(rand.NewSource(5)), 11, 2) }
	near := ansatz().Clone()
	for i := range near.Gates {
		if g := &near.Gates[i]; len(g.Params) > 0 {
			g.Params[0] = math.Float64frombits(math.Float64bits(g.Params[0]) ^ 1)
			break
		}
	}
	bad := circuit.New("bad", 3)
	bad.Gates = append(bad.Gates, circuit.Gate{Op: circuit.Op(250), Qubits: []int{0}, Clbit: -1})
	bad.MeasureAll()

	if !sameCircuit(qft, gens.QFT(12)) || fingerprint(qft) != fingerprint(gens.QFT(12)) {
		t.Fatal("two builds of one QFT do not compare equal")
	}
	if sameCircuit(ansatz(), near) {
		t.Fatal("a circuit one parameter bit apart compares equal")
	}

	jobs := []BatchJob{
		{Circ: qft, Shots: 300, Seed: 1},
		{Circ: qft, Shots: 200, Seed: 2},          // pointer-shared
		{Circ: gens.QFT(12), Shots: 128, Seed: 3}, // structurally equal
		{Circ: ansatz(), Shots: 250, Seed: 4},
		{Circ: near, Shots: 250, Seed: 4}, // near-twin: its own unit
		{Circ: ansatz(), Shots: 90, Seed: 5},
		{Circ: qft, Shots: 150, Noise: UniformNoise(0.001, 0.01, 0.01), Seed: 6}, // noisy: trajectories
		{Circ: bad, Shots: 10, Seed: 7},
		{Circ: bad, Shots: 20, Seed: 8},  // failing duplicate
		{Circ: qft, Shots: 0, Seed: 9},   // zero-shot copy
		{Circ: qft, Shots: 300, Seed: 1}, // the first job again
	}
	want := make([]BatchResult, len(jobs))
	for j := range jobs {
		want[j] = BatchRun(jobs[j:j+1], Parallelism{Workers: 1})[0]
	}
	for _, w := range []int{1, 4} {
		got := BatchRun(jobs, Parallelism{Workers: w})
		for j := range jobs {
			if (got[j].Err == nil) != (want[j].Err == nil) {
				t.Fatalf("workers=%d job %d: error %v, alone %v", w, j, got[j].Err, want[j].Err)
			}
			if !reflect.DeepEqual(got[j].Counts, want[j].Counts) {
				t.Fatalf("workers=%d job %d: counts\n%v\nalone\n%v", w, j, got[j].Counts, want[j].Counts)
			}
		}
		for _, j := range []int{7, 8, 9} {
			if got[j].Err == nil {
				t.Fatalf("workers=%d job %d: no error", w, j)
			}
		}
	}
}

// TestExactBatchAllocs pins what a batch of exact 2-qubit one-shot jobs
// (the shape of a minimal exec plan) allocates per job: no generator of
// its own — a stdlib source is two allocations and 4.9 KB a job — only
// the compiled program, measurements, distribution and counts. Twelve
// and a share of the batch's own; with a stdlib source per job it was
// fourteen.
func TestExactBatchAllocs(t *testing.T) {
	const n = 16
	jobs := make([]BatchJob, n)
	for j := range jobs {
		c := circuit.New("min", 2)
		c.RY(0, 0.1*float64(j+1)).CX(0, 1).MeasureAll()
		jobs[j] = BatchJob{Circ: c, Shots: 1, Seed: int64(j)}
	}
	const maxPerJob = 13
	got := testing.AllocsPerRun(20, func() { BatchRun(jobs, Parallelism{Workers: 1}) })
	if perJob := got / n; perJob > maxPerJob {
		t.Fatalf("exact 2-qubit batch allocates %.1f times a job, want at most %d", perJob, maxPerJob)
	}
}

// TestBatchRunPerJobErrors pins error isolation: invalid jobs report
// their own Err while the rest of the batch completes normally.
func TestBatchRunPerJobErrors(t *testing.T) {
	jobs := []BatchJob{
		{Circ: gens.GHZ(4), Shots: 100, Noise: UniformNoise(0.01, 0.02, 0.01), Seed: 1},
		{Circ: nil, Shots: 100, Seed: 2},
		{Circ: gens.GHZ(3), Shots: 0, Seed: 3},
		{Circ: gens.GHZ(4), Shots: 100, Noise: UniformNoise(0.01, 0.02, 0.01), Seed: 1},
	}
	res := BatchRun(jobs, Parallelism{Workers: 2})
	if res[1].Err == nil || res[1].Counts != nil {
		t.Fatalf("nil-circuit job should fail, got %+v", res[1])
	}
	if res[2].Err == nil || res[2].Counts != nil {
		t.Fatalf("zero-shot job should fail, got %+v", res[2])
	}
	for _, j := range []int{0, 3} {
		if res[j].Err != nil {
			t.Fatalf("valid job %d failed: %v", j, res[j].Err)
		}
		if got := res[j].Counts.Total(); got != 100 {
			t.Fatalf("job %d recorded %d shots, want 100", j, got)
		}
	}
	// Identical (Circ, Seed) jobs produce identical counts.
	if !reflect.DeepEqual(res[0].Counts, res[3].Counts) {
		t.Fatalf("same-seed jobs diverge: %v vs %v", res[0].Counts, res[3].Counts)
	}
	// An empty batch is fine.
	if out := BatchRun(nil, Parallelism{}); len(out) != 0 {
		t.Fatalf("empty batch returned %d results", len(out))
	}
}

// TestBatchRunSharedPoolRace drives the shared pool with enough
// concurrent units to matter under -race: many small jobs of mixed
// widths, full worker pool.
func TestBatchRunSharedPoolRace(t *testing.T) {
	var jobs []BatchJob
	for i := 0; i < 12; i++ {
		n := 3 + i%3
		jobs = append(jobs, BatchJob{
			Circ:  gens.QFTBench(n),
			Shots: 130,
			Noise: UniformNoise(0.005, 0.03, 0.02),
			Seed:  int64(100 + i),
		})
	}
	res := BatchRun(jobs, Parallelism{})
	for j := range res {
		if res[j].Err != nil {
			t.Fatalf("job %d: %v", j, res[j].Err)
		}
		if res[j].Counts.Total() != 130 {
			t.Fatalf("job %d recorded %d shots, want 130", j, res[j].Counts.Total())
		}
	}
}
