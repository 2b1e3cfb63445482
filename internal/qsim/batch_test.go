package qsim

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

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
// every job's Counts are bit-identical to a standalone RunOpts with
// rand.NewSource(job.Seed), for any shared-pool worker count — batched
// vs per-job pools changes scheduling only, never results.
func TestBatchRunMatchesPerJobRuns(t *testing.T) {
	jobs := batchCases()
	want := make([]Counts, len(jobs))
	for j, job := range jobs {
		counts, err := RunOpts(job.Circ, job.Shots, job.Noise, rand.New(rand.NewSource(job.Seed)), Parallelism{Workers: 1})
		if err != nil {
			t.Fatalf("job %d reference: %v", j, err)
		}
		want[j] = counts
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

// TestBatchRunFusionToggles checks the batch path honors the A/B
// toggles without changing counts.
func TestBatchRunFusionToggles(t *testing.T) {
	jobs := batchCases()
	base := BatchRun(jobs, Parallelism{Workers: 2})
	for _, p := range []Parallelism{
		{Workers: 2, DisableFusion2Q: true},
		{Workers: 2, DisableFusion: true},
		{Workers: runtime.NumCPU(), DisableFusion: true, DisableFusion2Q: true},
	} {
		got := BatchRun(jobs, p)
		for j := range jobs {
			if got[j].Err != nil {
				t.Fatalf("job %d (%+v): %v", j, p, got[j].Err)
			}
			if !reflect.DeepEqual(base[j].Counts, got[j].Counts) {
				t.Fatalf("job %d: counts change under %+v:\n%v\nvs\n%v",
					j, p, got[j].Counts, base[j].Counts)
			}
		}
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
