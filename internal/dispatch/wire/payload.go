package wire

import (
	"fmt"
	"math/rand"
	"strings"

	"qcloud/internal/circuit"
	"qcloud/internal/circuit/gens"
	"qcloud/internal/cloud"
	"qcloud/internal/qsim"
)

// ExecCaps bounds the exec plan derived from a study JobSpec. Study
// circuits reach 65 qubits and millions of shots — queue-model scale,
// not statevector scale — so the worker payload is a capped replica:
// same circuit family, width/batch/shots clamped to something a
// trajectory simulator finishes in milliseconds.
type ExecCaps struct {
	MaxWidth int
	MaxBatch int
	MaxShots int
}

// DefaultExecCaps keeps a unit of work small enough that a single
// worker drains thousands of submissions in seconds.
func DefaultExecCaps() ExecCaps { return ExecCaps{MaxWidth: 8, MaxBatch: 2, MaxShots: 128} }

func (c ExecCaps) withDefaults() ExecCaps {
	d := DefaultExecCaps()
	if c.MaxWidth <= 0 {
		c.MaxWidth = d.MaxWidth
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = d.MaxBatch
	}
	if c.MaxShots <= 0 {
		c.MaxShots = d.MaxShots
	}
	return c
}

// Mix is a stateless splitmix64 fold of (seed, parts...) onto a
// non-negative int63 — the same construction the fault injector uses
// for per-attempt decisions, reused here to derive per-unit and
// per-circuit RNG seeds that are independent of submission order.
func Mix(seed int64, parts ...int64) int64 {
	h := splitmix(uint64(seed))
	for _, p := range parts {
		h = splitmix(h ^ uint64(p))
	}
	return int64(splitmix(h) >> 1)
}

// splitmix is the splitmix64 output scrambler.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ExecKindOf extracts the circuit family from a workload circuit name
// ("qft27" → "qft"). Unknown families fail later, in BuildCircuit.
func ExecKindOf(circuitName string) string {
	return strings.TrimRight(circuitName, "0123456789")
}

// Plan fills a Spec from a study JobSpec: the trace plane copied
// verbatim, the exec plane derived deterministically from (seed, idx)
// with capped dimensions. idx is the submission's position in the
// client's stream, so the exec seeds of a workload are a pure function
// of (seed, order), independent of which dispatcher or worker touches
// them.
func Plan(js *cloud.JobSpec, caps ExecCaps, seed int64, idx int) Spec {
	caps = caps.withDefaults()
	w := js.Width
	if w > caps.MaxWidth {
		w = caps.MaxWidth
	}
	if w < 2 {
		w = 2
	}
	b := js.BatchSize
	if b > caps.MaxBatch {
		b = caps.MaxBatch
	}
	if b < 1 {
		b = 1
	}
	sh := js.Shots
	if sh > caps.MaxShots {
		sh = caps.MaxShots
	}
	if sh < 1 {
		sh = 1
	}
	return Spec{
		TracePlane: *js,
		ExecKind:   ExecKindOf(js.CircuitName),
		ExecWidth:  w,
		ExecBatch:  b,
		ExecShots:  sh,
		ExecSeed:   Mix(seed, int64(idx)),
	}
}

// BuildCircuit constructs one exec-plane circuit. Families mirror
// internal/workload's catalog; the seed shapes the stochastic builders
// (vqe angles, random-circuit structure, bv secret) deterministically.
func BuildCircuit(kind string, width int, seed int64) (*circuit.Circuit, error) {
	if width < 2 {
		width = 2
	}
	switch kind {
	case "ghz":
		return gens.GHZ(width), nil
	case "bv":
		secret := uint64(Mix(seed, 1)) & ((1 << (width - 1)) - 1)
		return gens.BernsteinVazirani(width-1, secret), nil
	case "qft":
		return gens.QFT(width), nil
	case "qaoa":
		return gens.QAOAMaxCut(width, gens.RingEdges(width), 2), nil
	case "vqe":
		return gens.HardwareEfficientAnsatz(rand.New(rand.NewSource(seed)), width, 3), nil
	case "random":
		return gens.Random(rand.New(rand.NewSource(seed)), width, 8+width, 0.3), nil
	}
	return nil, fmt.Errorf("wire: unknown exec circuit kind %q", kind)
}

// BuildBatch expands a Spec's exec plan into the qsim.BatchRun jobs
// for one unit of work: ExecBatch circuits of the Spec's family, each
// with its own structure seed and shot-RNG seed derived from ExecSeed.
// Noiseless terminal-measure circuits take qsim's exact path, so the
// counts are a pure function of (circuit, shots, seed) — identical on
// any worker, at any parallelism.
func BuildBatch(s *Spec) ([]qsim.BatchJob, error) {
	if s.ExecBatch < 1 || s.ExecShots < 1 {
		return nil, fmt.Errorf("wire: empty exec plan for %s", s.CircuitName)
	}
	jobs := make([]qsim.BatchJob, 0, s.ExecBatch)
	for c := 0; c < s.ExecBatch; c++ {
		circ, err := BuildCircuit(s.ExecKind, s.ExecWidth, Mix(s.ExecSeed, int64(2*c)))
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, qsim.BatchJob{
			Circ:  circ,
			Shots: s.ExecShots,
			Seed:  Mix(s.ExecSeed, int64(2*c+1)),
		})
	}
	return jobs, nil
}

// MergeBatch folds one unit's per-circuit results into the unit's
// counts. Any circuit error fails the whole unit (the unit is the
// retry granularity).
func MergeBatch(res []qsim.BatchResult) (map[string]int, error) {
	merged := make(map[string]int)
	for _, r := range res {
		if r.Err != nil {
			return nil, r.Err
		}
		// Per-key integer addition commutes exactly.
		//qcloud:orderinvariant
		for bits, n := range r.Counts {
			merged[bits] += n
		}
	}
	return merged, nil
}

// RunLocal executes a slice of Specs in-process — the single-process
// reference the distributed counts plane must match byte for byte. One
// BatchRun spans all units (the shared trajectory pool is the whole
// point of BatchRun), then results fold back per unit. Seq is the
// slice index: the same numbering a dispatcher assigns a sealed
// submission stream.
func RunLocal(specs []Spec, p qsim.Parallelism) (*cloud.ResultSet, error) {
	var jobs []qsim.BatchJob
	spans := make([][2]int, len(specs)) // [start, end) into jobs, per spec
	rs := cloud.NewResultSet()
	for i := range specs {
		js, err := BuildBatch(&specs[i])
		if err != nil {
			rs.Ingest(cloud.JobResult{
				Seq: int64(i), Circuit: specs[i].ExecLabel(),
				Batch: specs[i].ExecBatch, Shots: specs[i].ExecShots,
				Err: err.Error(),
			})
			spans[i] = [2]int{-1, -1}
			continue
		}
		spans[i] = [2]int{len(jobs), len(jobs) + len(js)}
		jobs = append(jobs, js...)
	}
	res := qsim.BatchRun(jobs, p)
	for i := range specs {
		if spans[i][0] < 0 {
			continue
		}
		counts, err := MergeBatch(res[spans[i][0]:spans[i][1]])
		jr := cloud.JobResult{
			Seq: int64(i), Circuit: specs[i].ExecLabel(),
			Batch: specs[i].ExecBatch, Shots: specs[i].ExecShots,
		}
		if err != nil {
			jr.Err = err.Error()
		} else {
			jr.Counts = counts
		}
		rs.Ingest(jr)
	}
	return rs, nil
}
