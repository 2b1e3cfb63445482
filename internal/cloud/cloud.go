// Package cloud is the discrete-event simulator of the quantum cloud:
// per-machine fair-share queues, background load from the wider user
// population, job lifecycle (queued, running, done/error/cancelled),
// calibration-epoch tracking, and pending-queue sampling.
//
// The paper's dataset is the authors' 6000 jobs executed on machines
// shared with thousands of other users; here the study jobs are
// explicit JobSpecs and everyone else is the modeled background load,
// which is what produces the queuing-time distributions of Figs 3, 4,
// 10 and the pending-job counts of Fig 9.
//
// The core is the event-driven Session API: Open a session, Submit
// jobs (up-front or mid-run), Observe lifecycle events, query live
// QueueState snapshots, and Run to the end of the window. Simulate is
// the batch convenience wrapper over it.
package cloud

import (
	"math"
	"math/rand"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/fault"
	"qcloud/internal/trace"
)

// JobSpec is a study job to submit: what the client sends to the cloud.
// It is also the trace plane of a dispatcher submission (wire.Spec), so
// the JSON tags name the fields of a POST /v1/submit body.
type JobSpec struct {
	// SubmitTime is when the job enters the queue.
	SubmitTime time.Time `json:"submit_time"`
	// User identifies the submitter (fair-share accounting key).
	User string `json:"user"`
	// Machine is the target backend name.
	Machine string `json:"machine"`
	// BatchSize and Shots shape execution time.
	BatchSize int `json:"batch_size"`
	Shots     int `json:"shots"`
	// CircuitName labels the batch's circuit family.
	CircuitName string `json:"circuit_name"`
	// Width, TotalDepth, TotalGateOps, CXTotal, MemSlots are the
	// aggregate circuit features recorded in the trace (the paper's
	// Fig 15 predictor features).
	Width        int `json:"width"`
	TotalDepth   int `json:"total_depth"`
	TotalGateOps int `json:"total_gate_ops"`
	CXTotal      int `json:"cx_total"`
	MemSlots     int `json:"mem_slots"`
	// PatienceSec cancels the job if it has not started within this
	// wait (0 = infinite patience).
	PatienceSec float64 `json:"patience_sec,omitempty"`
	// Privileged marks paid-access users, who may target private
	// machines (used by scheduling policies).
	Privileged bool `json:"privileged,omitempty"`
}

// Config parameterizes a simulation run.
type Config struct {
	// Seed drives all stochastic behavior deterministically.
	Seed int64
	// Start and End bound the simulated window.
	Start, End time.Time
	// Machines is the fleet (default backend.Fleet()).
	Machines []*backend.Machine
	// Background controls the non-study load (default DefaultBackground).
	Background *BackgroundModel
	// PendingSampleEvery sets the queue-length sampling period
	// (default 6h).
	PendingSampleEvery time.Duration
	// Workers bounds the per-machine simulation fan-out (0 = process
	// default, 1 = serial). Machines are independent event loops with
	// machine-seeded RNGs, so the trace is bit-identical for any
	// worker count.
	Workers int
	// Faults enables the deterministic fault injector: unplanned
	// outages, transient submit/backend errors, failure bursts and
	// calibration-staleness waves (nil = nothing ever fails
	// unexpectedly). Fault decisions come from their own splitmix64
	// streams, so enabling them never perturbs the machine RNG
	// sequence.
	Faults *fault.Profile
	// Retry requeues transiently-failed jobs with capped exponential
	// backoff (nil = transient failures are terminal errors).
	Retry *RetryPolicy
	// Journal enables durable journaling: finished jobs stream into an
	// append-only journal directory instead of memory, the session
	// auto-checkpoints itself, and a killed run resumes with Recover
	// (nil = in-memory traces, the default).
	Journal *JournalConfig
	// RecordSink, if set, receives every finished study-job record
	// synchronously from the recording machine's advance loop, tagged
	// with the machine's fleet index. Calls for one machine arrive in
	// that machine's deterministic record order, but different machines
	// record concurrently under the worker budget — implementations
	// must be race-free across indices (e.g. append to a per-machine
	// buffer and merge after AdvanceTo returns). This is the tenant
	// broker's allocation-accounting hook; unlike Observe it adds no
	// goroutines and no buffering, so it cannot reorder or drop.
	RecordSink func(machine int, spec *JobSpec, job *trace.Job)
}

// RetryPolicy governs how a machine requeues jobs killed by transient
// backend faults: capped exponential backoff with deterministic
// jitter, a per-job attempt budget, and an optional per-user retry
// budget. Backoff jitter is a stateless splitmix64 hash of (seed,
// machine, job, attempt), so retry timing is bit-identical across
// worker counts and checkpoint/restore.
type RetryPolicy struct {
	// MaxAttempts bounds total executions per job, first try included
	// (default 3).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry (default 60s);
	// each further attempt doubles it, capped at MaxBackoff (default
	// 1h). The cap applies after jitter: no retry waits longer than
	// MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterFrac spreads each delay uniformly over ±JitterFrac of
	// itself (default 0.25; negative = no jitter).
	JitterFrac float64
	// BudgetPerUser caps retries charged to one user per machine
	// (0 = unlimited): a tenant-level circuit breaker so a pathological
	// workload cannot monopolize recovery capacity.
	BudgetPerUser int
}

func (p *RetryPolicy) withDefaults() *RetryPolicy {
	q := *p
	if q.MaxAttempts <= 0 {
		q.MaxAttempts = 3
	}
	if q.BaseBackoff <= 0 {
		q.BaseBackoff = time.Minute
	}
	if q.MaxBackoff <= 0 {
		q.MaxBackoff = time.Hour
	}
	if q.JitterFrac == 0 {
		q.JitterFrac = 0.25
	}
	return &q
}

// backoffSec returns the delay before the given retry attempt
// (attempt 1 = first retry): exponential in the attempt, jittered by
// the job's deterministic stream, capped at MaxBackoff.
func (p *RetryPolicy) backoffSec(attempt int, seed, machineSeed, jobID int64) float64 {
	d := p.BaseBackoff.Seconds() * math.Pow(2, float64(attempt-1))
	if p.JitterFrac > 0 {
		d *= 1 + p.JitterFrac*(2*fault.Unit(seed, machineSeed, jobID, int64(attempt), 11)-1)
	}
	return math.Min(d, p.MaxBackoff.Seconds())
}

// errorRate is the probability an executed job errors out: 0.035,
// matching Fig 2b's ~5% non-DONE combined with cancellations. It is a
// variable only so that tests can change it.
var errorRate = 0.035

func (c Config) withDefaults() Config {
	if c.Machines == nil {
		c.Machines = backend.Fleet()
	}
	if c.Start.IsZero() {
		c.Start = backend.StudyStart
	}
	if c.End.IsZero() {
		c.End = backend.StudyEnd
	}
	if c.Background == nil {
		c.Background = DefaultBackground()
	}
	if c.PendingSampleEvery <= 0 {
		c.PendingSampleEvery = 6 * time.Hour
	}
	return c
}

// Simulate runs the cloud over the configured window with the given
// study jobs and returns the trace: the batch wrapper over the Session
// API (open, submit everything, run to completion). Study jobs may
// target any machine in the fleet; specs on unknown machines are an
// error. Transient submit rejections from the fault injector are
// retried like a patient client would (and never occur with faults
// disabled).
func Simulate(cfg Config, specs []*JobSpec) (*trace.Trace, error) {
	s, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	for _, spec := range specs {
		if _, err := s.SubmitRetried(spec, 0); err != nil {
			return nil, err
		}
	}
	return s.Run()
}

// queuedJob is a job waiting in a machine queue (study or background).
type queuedJob struct {
	spec     *JobSpec // nil for background jobs
	submit   float64  // seconds since sim start
	execSec  float64
	patience float64 // 0 = infinite
	priority float64 // fair-share score: lower runs first
	seq      int64   // tiebreaker
	// acct is the submitter's fair-share accumulator, charged when the
	// job is served.
	acct *acct
	// user is the fair-share key (kept by name so retries and
	// checkpoints can re-link the accumulator; background names come
	// from the session's interned table, never built per job).
	user string
	// id identifies the job across retries: the seq of its first
	// enqueue, stable while seq changes on every requeue.
	id int64
	// attempt counts completed executions before this one (0 = first
	// try); the retry policy's per-job budget is spent against it.
	attempt int
	// pendingAtSubmit is the queue length observed at enqueue time,
	// kept for wait-prediction calibration.
	pendingAtSubmit int
}

// jobHeap is a min-heap on (priority, seq).
type jobHeap []*queuedJob

func (h jobHeap) less(i, j int) bool {
	if h[i].priority != h[j].priority {
		return h[i].priority < h[j].priority
	}
	return h[i].seq < h[j].seq
}

func (h *jobHeap) push(j *queuedJob) {
	*h = append(*h, j)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h).less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

// pop removes and returns the minimum. The vacated backing-array slot
// is cleared: machineSim recycles popped records, and a stale pointer
// left there would alias a record that is live again.
//
//qcloud:noalloc
func (h *jobHeap) pop() *queuedJob {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	old[last] = nil
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(*h) && (*h).less(l, smallest) {
			smallest = l
		}
		if r < len(*h) && (*h).less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// fairSharePenalty converts recent machine-seconds of usage into queue
// priority penalty seconds: heavy users wait behind light users even
// when they submitted earlier, the IBM fair-share behavior the paper
// describes ("the order in which jobs complete is not necessarily the
// order in which they were submitted").
const fairSharePenalty = 8

// usageDecayHours is the half-life of fair-share usage accounting.
const usageDecayHours = 24

// decayFactor returns the exponential usage decay over dt seconds with
// a half-life of usageDecayHours.
func decayFactor(dt float64) float64 {
	return math.Exp2(-dt / (usageDecayHours * 3600))
}

// acct is one user's fair-share accumulator on one machine: QPU-seconds
// charged, exponentially decayed up to last.
type acct struct {
	usage float64
	last  float64 // instant usage was last decayed to
	seen  bool    // charged at least once (only seen accounts are checkpointed)
}

// charged decays the accumulator to now and returns the usage a job
// submitted at now is scored against. A first sighting starts from
// zero at now.
//
//qcloud:noalloc
func (a *acct) charged(now float64) float64 {
	if !a.seen {
		a.seen, a.last = true, now
		return a.usage
	}
	if dt := now - a.last; dt > 0 {
		a.usage *= decayFactor(dt)
		a.last = now
	}
	return a.usage
}

// genDowntimes samples maintenance windows over [startSec, endSec):
// exponentially spaced (~12 day mean), log-normal duration with a
// median around six hours and a tail reaching multiple days.
func genDowntimes(r *rand.Rand, startSec, endSec float64) [][2]float64 {
	const meanGapDays = 18
	var out [][2]float64
	t := startSec + r.ExpFloat64()*meanGapDays*86400
	for t < endSec {
		dur := math.Exp(math.Log(12*3600) + 1.1*r.NormFloat64())
		if dur > 5*86400 {
			dur = 5 * 86400
		}
		out = append(out, [2]float64{t, math.Min(t+dur, endSec)})
		t += dur + r.ExpFloat64()*meanGapDays*86400
	}
	return out
}
