package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"qcloud/internal/backend"
)

// env is what a workload run is given.
type env struct {
	seed int64
	// scale multiplies every workload's job counts: 1 in the benchmark,
	// about 0.01 in the tier-1 smoke test.
	scale float64
	host  *host
	// tmp is where fresh state directories are made; out is where span
	// files go.
	tmp, out string
	// golden holds the recorded facts of this workload, or nil when the
	// run must derive its reference in process (any seed but 1, any
	// scale but 1, or -update-golden).
	golden map[string]string
}

// n scales a job count, keeping at least lo.
func (e *env) n(full, lo int) int {
	return max(lo, int(float64(full)*e.scale))
}

// days scales a simulated window by the square root of the scale (a
// 1 % smoke run keeps a tenth of it): background arrivals, not study
// jobs, are what a window costs.
func (e *env) days(full float64) float64 {
	return max(min(full, 7), full*math.Sqrt(e.scale))
}

func (e *env) window(fullDays float64) (start, end time.Time) {
	start = backend.StudyStart
	return start, start.Add(time.Duration(e.days(fullDays) * 24 * float64(time.Hour)))
}

func (e *env) mkdir(pattern string) (string, error) {
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.tmp, pattern)
}

// iteration is what one pass of a workload measured. Every workload
// repeats its pass until the run's seconds are used, and the run
// reports medians over the passes.
type iteration struct {
	setup  time.Duration
	phases [numPhases]time.Duration
	// jobs went through the whole path, the sum of the phases.
	jobs int
	used usage
	// ops counts operations attempted (requests, calls), failed those
	// that errored or were refused.
	ops, failed int
	// out is whatever verify needs.
	out any
}

func (it *iteration) path() time.Duration {
	var d time.Duration
	for _, p := range it.phases {
		d += p
	}
	return d
}

// verdict is what checking a run's outputs found.
type verdict struct {
	checks, failed int
	problems       []string
	// facts are exact values of this run's outputs (hashes, job counts)
	// that no change to the code may move; seed 1's are the goldens.
	facts map[string]string
	// stored are exact values of what the run stored (WAL bytes, journal
	// records) that the same code must repeat but a later change may
	// move: a smaller WAL is a gain, not a failed check.
	stored map[string]string
}

func (v *verdict) check(ok bool, format string, args ...any) {
	v.checks++
	if !ok {
		v.failed++
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// fact records an exact output value. Every iteration must produce the
// same one, and with goldens loaded it must equal the recorded one.
func (v *verdict) fact(golden map[string]string, key, value string) {
	if v.repeats(&v.facts, key, value) && golden != nil {
		v.check(golden[key] == value, "%s = %s, golden says %s", key, value, golden[key])
	}
}

// storedSize records an exact stored size. Every iteration must produce
// the same one; no golden holds it.
func (v *verdict) storedSize(key, value string) { v.repeats(&v.stored, key, value) }

// repeats notes key's value in m the first time it is seen, reporting
// true, and afterwards checks that the value is the same again.
func (v *verdict) repeats(m *map[string]string, key, value string) (first bool) {
	if *m == nil {
		*m = map[string]string{}
	}
	if old, seen := (*m)[key]; seen {
		v.check(old == value, "%s differs between iterations: %s then %s", key, old, value)
		return false
	}
	(*m)[key] = value
	return true
}

// workloadDef is one named set of inputs.
type workloadDef struct {
	name, why string
	// sizes documents the full-scale inputs in the report.
	sizes map[string]any
	// threads is how many generator threads or connections the driver
	// uses at any moment.
	threads int
	// minIters is the least number of passes a run makes.
	minIters int
	// needsBinaries is set when the child-process host is used.
	needsBinaries bool
	iterate       func(e *env, tr *tracer) (*iteration, error)
	// verify checks every iteration's outputs: against the goldens when
	// e.golden is set, else against a reference derived in process.
	verify func(e *env, its []*iteration) (*verdict, error)
	// shape is the input shape the per-layer probes run on.
	shape func(e *env) probeShape
}

// result is one run of one workload, as the report prints it.
type result struct {
	Workload  string             `json:"workload"`
	Why       string             `json:"why"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Sizes     map[string]any     `json:"sizes"`
	Threads   int                `json:"generator_threads"`
	Samples   int                `json:"samples"`
	Seconds   float64            `json:"measured_seconds"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	PerPass   []float64          `json:"jobs_per_s_per_pass,omitempty"`
	Phases    map[string]float64 `json:"phase_median_s,omitempty"`
	Facts     map[string]string  `json:"facts,omitempty"`
	Stored    map[string]string  `json:"stored,omitempty"`
}

// selfCPU is this process's CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runWorkload makes one run: passes of the workload until dur is used,
// then the output checks. A traced run instead makes one untraced and
// one traced pass and then runs the per-layer probes.
func runWorkload(w *workloadDef, e *env, dur time.Duration, traced bool) (*result, error) {
	res := &result{
		Workload: w.name, Why: w.why, Seed: e.seed, Traced: traced,
		Sizes: w.sizes, Threads: w.threads, Metrics: map[string]float64{},
	}
	var its []*iteration
	var tr *tracer
	start := time.Now()
	if traced {
		plain, err := w.iterate(e, nil)
		if err != nil {
			return nil, err
		}
		tr = newTracer()
		root := tr.begin(-1, "bench", "iteration", -1)
		withSpans, err := w.iterate(e, tr)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		its = []*iteration{plain, withSpans}
		for p, name := range phaseNames {
			res.Metrics["phase."+name+"_s"] = withSpans.phases[p].Seconds()
		}
		res.Metrics["trace.overhead_share"] = withSpans.path().Seconds()/plain.path().Seconds() - 1
	} else {
		for len(its) < w.minIters || time.Since(start) < dur {
			it, err := w.iterate(e, nil)
			if err != nil {
				return nil, err
			}
			its = append(its, it)
		}
	}
	res.Seconds = time.Since(start).Seconds()
	res.Samples = len(its)
	selfRSS := peakRSSKB(0)

	if traced {
		if err := runProbes(w.shape(e), e, tr, res.Metrics); err != nil {
			return nil, err
		}
		if err := tr.write(e.out, w.name, e.seed); err != nil {
			return nil, err
		}
	} else {
		res.PerPass = each(its, func(it *iteration) float64 { return float64(it.jobs) / it.path().Seconds() })
		res.Metrics["jobs_per_s"] = median(res.PerPass)
		res.Metrics["cpu_us_per_job"] = median(each(its, func(it *iteration) float64 {
			return it.used.cpu.Seconds() * 1e6 / float64(it.jobs)
		}))
		rss := median(each(its, func(it *iteration) float64 { return float64(it.used.rssKB) }))
		if rss == 0 { // in-process workload: the driver is the program
			rss = float64(selfRSS)
		}
		res.Metrics["peak_rss_mb"] = rss / 1024
		res.Metrics["setup_s"] = median(each(its, func(it *iteration) float64 { return it.setup.Seconds() }))
		res.Phases = map[string]float64{}
		for p, name := range phaseNames {
			res.Phases[name] = median(each(its, func(it *iteration) float64 { return it.phases[p].Seconds() }))
		}
	}
	for _, it := range its {
		res.Attempted += it.ops
		res.Failed += it.failed
	}

	v, err := w.verify(e, its)
	if err != nil {
		return nil, err
	}
	res.Attempted += v.checks
	res.Failed += v.failed
	res.Problems = v.problems
	res.Facts, res.Stored = v.facts, v.stored
	res.Correct = res.Failed == 0
	return res, nil
}

// benchDirs are the places the benchmark writes, all inside bench/out
// of the checkout it runs in.
func benchDirs() (out, bin, tmp string) {
	out = filepath.Join("bench", "out")
	return out, filepath.Join(out, "bin"), filepath.Join(out, "tmp")
}
