package cloud

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/par"
	"qcloud/internal/trace"
)

// EventKind names a job or machine lifecycle event. A session counts
// each kind in Stats; the dispatcher's event stream uses the same
// names.
type EventKind string

// Lifecycle event kinds.
const (
	// EventEnqueue fires when a job (study or background) enters a
	// machine queue.
	EventEnqueue EventKind = "enqueue"
	// EventStart fires when the server begins executing a job.
	EventStart EventKind = "start"
	// EventDone / EventError / EventCancel are terminal job states,
	// mirroring trace.Status.
	EventDone   EventKind = "done"
	EventError  EventKind = "error"
	EventCancel EventKind = "cancel"
	// EventDowntime fires when a maintenance window displaces a start.
	EventDowntime EventKind = "downtime"
	// EventPendingSample fires at each queue-length sampling point.
	EventPendingSample EventKind = "pending-sample"
	// EventMachineDown / EventMachineUp bracket an unplanned fault
	// outage as the machine's frontier crosses its boundaries. Unlike
	// planned maintenance, outages are invisible until they begin.
	EventMachineDown EventKind = "machine-down"
	EventMachineUp   EventKind = "machine-up"
	// EventRetry fires when a transiently-failed job is scheduled for
	// another attempt; every retry is balanced by a later EventRequeue
	// when the job re-enters the queue after its backoff.
	EventRetry   EventKind = "retry"
	EventRequeue EventKind = "requeue"
)

// CancelReason classifies why a job was withdrawn. Stats counts each
// reason apart, so a tenant-broker preemption (the job will be
// requeued and tried again) stays distinct from a user giving up — the
// two move opposite directions in fairness accounting.
type CancelReason string

const (
	// CancelUser: explicit Session.Cancel by the submitting caller.
	CancelUser CancelReason = "user"
	// CancelPreempted: withdrawn by a scheduling layer (tenant broker)
	// to make room for a more deserving job; the spec is re-submitted.
	CancelPreempted CancelReason = "preempted"
	// CancelPatience: the simulated user gave up waiting in queue.
	CancelPatience CancelReason = "patience"
	// CancelWindow: the simulation window or machine retirement closed
	// over a job that never started.
	CancelWindow CancelReason = "window"
)

// Counts tallies one population's job lifecycle on one machine. Once
// the machine has run to the end of its window the tallies keep three
// conservation laws: Enqueue = Start + the cancels of enqueued jobs,
// Start = Done + Error + Retry, and Retry = Requeue.
type Counts struct {
	// Enqueue counts queue entries, requeues included.
	Enqueue, Start, Done, Error int64
	// Retry counts transient failures scheduled for another attempt,
	// Requeue the retries that re-entered the queue after their backoff.
	Retry, Requeue int64
	// Cancels by reason. A study job cancelled before admission is
	// counted here without an Enqueue.
	CancelUser, CancelPreempted, CancelPatience, CancelWindow int64
}

// Cancels sums the cancels of every reason.
func (c *Counts) Cancels() int64 {
	return c.CancelUser + c.CancelPreempted + c.CancelPatience + c.CancelWindow
}

// end counts a job's terminal state.
func (c *Counts) end(status trace.Status, reason CancelReason) {
	switch {
	case status == trace.StatusDone:
		c.Done++
	case status == trace.StatusError:
		c.Error++
	case reason == CancelUser:
		c.CancelUser++
	case reason == CancelPreempted:
		c.CancelPreempted++
	case reason == CancelPatience:
		c.CancelPatience++
	default:
		c.CancelWindow++
	}
}

// MachineCounts is one machine's lifecycle tally since the session was
// opened or restored: its study and background jobs, the planned downtime windows that
// displaced a start, the queue-length samples taken, and the unplanned
// outages whose start (MachineDown) and end (MachineUp) the frontier
// has crossed.
type MachineCounts struct {
	Study, Background                               Counts
	Downtime, PendingSample, MachineDown, MachineUp int64
}

// JobHandle identifies a study job submitted to a session; it is the
// token Cancel and JobStatus take. Inside the session it is also the
// job's one record: the pending stream holds the handle until
// admission, then the queue or the retry list until the job is
// recorded, and no list after that; a checkpoint writes each live
// handle where its list holds it. Its state lives here, written only by
// the goroutine advancing its machine.
type JobHandle struct {
	spec *JobSpec
	ms   *machineSim
	// rec is the job's in-memory trace record once it is out; a
	// journaled session streams records to disk and keeps none.
	rec *trace.Job

	// recorded: the job's terminal trace record is out. withdrawn: it
	// was cancelled after admission, and its record (at cancelAt, in
	// machine seconds, with reason) lands when the server reaches it.
	recorded  bool
	withdrawn bool
	cancelAt  float64
	reason    CancelReason
}

// Record returns the job's trace record, the one the session's trace
// holds: nil until the machine has recorded the job, and always nil in
// a journaled session. It stays readable after Run has closed the
// session. The record is written by the goroutine advancing the job's
// machine, so read it between AdvanceTo/Run calls, not during one.
func (h *JobHandle) Record() *trace.Job { return h.rec }

// QueueSnapshot is a live view of one machine's queue at its frontier
// — the information a vendor-side scheduler can act on at a job's
// submit instant (the paper's §IV-D machine-aware management and
// §V-E queue-time prediction).
type QueueSnapshot struct {
	Machine string
	// Time is the machine's frontier: every arrival before it has
	// been observed.
	Time time.Time
	// Pending counts queued (not yet started) jobs; PendingStudy is
	// the study-job subset.
	Pending      int
	PendingStudy int
	// RunningUntil is when the in-flight job finishes (zero when the
	// server is idle at the frontier).
	RunningUntil time.Time
	// BacklogSeconds sums the service times of the queued jobs — the
	// vendor-side runtime-prediction view of the queue's depth.
	BacklogSeconds float64
	// DowntimeSeconds is scheduled maintenance the queue must ride out
	// before the backlog clears (including a window in progress at the
	// frontier). Vendors know their own maintenance calendar, so this
	// is legitimately visible to a placement policy.
	DowntimeSeconds float64
	// MeanExecSeconds is the machine's mean background service time.
	MeanExecSeconds float64
	// Down reports an unplanned fault outage in progress at the
	// frontier. Only an outage already underway is visible — future
	// outages never leak into snapshots, unlike the planned calendar
	// in DowntimeSeconds.
	Down bool
}

// EstimatedWaitSeconds predicts the queue wait a job submitted at the
// snapshot instant would see: the in-flight job's remaining service,
// the queued backlog, and any maintenance windows in the way.
func (q QueueSnapshot) EstimatedWaitSeconds() float64 {
	w := q.BacklogSeconds + q.DowntimeSeconds
	if q.RunningUntil.After(q.Time) {
		w += q.RunningUntil.Sub(q.Time).Seconds()
	}
	return w
}

// Session is an open, steppable cloud simulation: jobs can be
// submitted while it runs, queues observed at their live frontier, and
// lifecycle counts read. The batch Simulate call is a thin wrapper
// (open, submit everything, run) and produces bit-identical traces.
//
// A Session is driven from one goroutine: Submit/Cancel/AdvanceTo/
// QueueState/Stats/Run must not be called concurrently with each other.
type Session struct {
	cfg  Config
	sims []*machineSim
	// fleet indexes sims by machine name.
	fleet FleetIndex
	// order lists sims indices heaviest expected background load first:
	// the order forEachSim hands machines to workers.
	order []int

	closed bool

	// jr is non-nil when the session journals durably (Config.Journal).
	jr *sessionJournal
}

// Open initializes a session over the configured window: one machine
// state machine per fleet member, constructed in parallel under the
// config's worker budget. With Config.Journal set, fresh journal
// streams are created (an existing journal must go through Recover).
func Open(cfg Config) (*Session, error) {
	c := cfg.withDefaults()
	s := &Session{cfg: c, fleet: indexFleet(c.Machines)}
	s.sims = make([]*machineSim, len(c.Machines))
	bgNames := backgroundUserNames(c.Background.Users)
	par.ForEach(len(c.Machines), c.Workers, func(i int) {
		s.sims[i] = newMachineSim(c, c.Machines[i], s, bgNames)
		s.sims[i].idx = i
	})
	s.order = make([]int, len(s.sims))
	for i := range s.sims {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		return s.sims[s.order[a]].expectedLoad() > s.sims[s.order[b]].expectedLoad()
	})
	if c.Journal != nil {
		if c.Journal.Dir == "" {
			return nil, errors.New("cloud: Config.Journal needs a Dir")
		}
		s.cfg.Journal = c.Journal.withDefaults()
		if err := openSessionJournal(s, s.cfg.Journal); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Machines returns the fleet in machine-index order, the order Stats
// reports it in. Callers must not mutate the slice.
func (s *Session) Machines() []*backend.Machine { return s.cfg.Machines }

// Window returns the simulated window after defaulting.
func (s *Session) Window() (start, end time.Time) { return s.cfg.Start, s.cfg.End }

// FleetIndex maps each machine name of a fleet to its index in that
// fleet. It is how a session resolves a study job's Machine, so a
// caller that accepts specs for a session it has not opened yet checks
// them against IndexFleet of that session's Config and refuses what
// the session would.
type FleetIndex map[string]int

// IndexFleet indexes the fleet a session opened with cfg simulates.
func IndexFleet(cfg Config) FleetIndex { return indexFleet(cfg.withDefaults().Machines) }

func indexFleet(ms []*backend.Machine) FleetIndex {
	f := make(FleetIndex, len(ms))
	for i, m := range ms {
		f[m.Name] = i
	}
	return f
}

// Check returns nil when a session simulating the fleet can run and
// record the study job, and otherwise the error Submit refuses it with:
// the fleet has no such machine, or the job's batch size or shot count
// is one a trace record cannot hold.
func (f FleetIndex) Check(spec *JobSpec) error {
	_, err := f.index(spec)
	return err
}

// index is Check that also returns the fleet index of the job's
// machine.
func (f FleetIndex) index(spec *JobSpec) (int, error) {
	i, ok := f[spec.Machine]
	if !ok {
		return 0, fmt.Errorf("cloud: study job targets unknown machine %q", spec.Machine)
	}
	if spec.BatchSize < 1 || spec.Shots < 1 {
		return 0, fmt.Errorf("cloud: study job has batch size %d and %d shots, want at least 1 of each", spec.BatchSize, spec.Shots)
	}
	return i, nil
}

// sim returns the named machine's state machine, nil when the fleet
// has no such machine.
func (s *Session) sim(machine string) *machineSim {
	if i, ok := s.fleet[machine]; ok {
		return s.sims[i]
	}
	return nil
}

// Submit enters a study job into its machine's arrival stream. It is
// valid mid-run: the job may be submitted any time before the session
// has advanced past its submit instant, and the resulting trace is
// identical to one where the job was present from the start. With
// fault injection enabled, Submit can fail with ErrTransientSubmit —
// a retryable API-level rejection; see SubmitRetried.
func (s *Session) Submit(spec *JobSpec) (*JobHandle, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	i, err := s.fleet.index(spec)
	if err != nil {
		return nil, err
	}
	ms := s.sims[i]
	h, err := ms.submit(spec)
	if err != nil {
		return nil, err
	}
	// Journaled sessions log every accepted submission before
	// acknowledging it — the input log recovery replays from.
	if s.jr != nil {
		if jerr := s.jr.appendSubmit(ms, spec); jerr != nil {
			return nil, jerr
		}
	}
	return h, nil
}

// SubmitRetried submits like Submit but re-attempts transient
// API-level rejections up to maxAttempts times (<=0 means a generous
// default of 8). Each attempt is a fresh deterministic decision, so
// callers that always use SubmitRetried see the same admission
// sequence at any worker count. Non-transient errors fail immediately.
func (s *Session) SubmitRetried(spec *JobSpec, maxAttempts int) (*JobHandle, error) {
	if maxAttempts <= 0 {
		maxAttempts = 8
	}
	var err error
	for i := 0; i < maxAttempts; i++ {
		var h *JobHandle
		if h, err = s.Submit(spec); err == nil || !errors.Is(err, ErrTransientSubmit) {
			return h, err
		}
	}
	return nil, err
}

// JobState is the lifecycle position JobStatus reports.
type JobState string

// Job lifecycle states.
const (
	// JobStatePending: submitted but not yet admitted into the queue.
	JobStatePending JobState = "pending"
	// JobStateQueued: in the machine queue, or waiting out a retry
	// backoff.
	JobStateQueued JobState = "queued"
	// JobStateWithdrawn: cancelled by the caller, record still pending.
	JobStateWithdrawn JobState = "withdrawn"
	// JobStateFinished: a terminal trace record exists.
	JobStateFinished JobState = "finished"
)

// JobStatus reports where a submitted job currently stands at its
// machine's frontier — what a reactive scheduler polls before deciding
// whether a job is still worth re-placing.
func (s *Session) JobStatus(h *JobHandle) (JobState, error) {
	if s.closed {
		return "", ErrSessionClosed
	}
	if h == nil || h.ms.sess != s {
		return "", fmt.Errorf("cloud: handle does not belong to this session")
	}
	return h.ms.jobState(h), nil
}

// Cancel withdraws a submitted job that has not finished; it is
// recorded as CANCELLED at the machine's current frontier (or its
// submit instant, if that is later) and counted as CancelUser. A
// journaled session refuses it: its input log holds submissions only,
// so Recover would lose a cancel made after the newest checkpoint.
func (s *Session) Cancel(h *JobHandle) error {
	return s.CancelWithReason(h, CancelUser)
}

// CancelWithReason is Cancel with an explicit classification of the
// cancel — CancelPreempted is how the tenant broker marks a withdrawal
// it will follow with a requeue, keeping preemptions distinguishable
// from users giving up in Stats and metrics. An empty reason is
// CancelUser; a reason outside the four is refused.
func (s *Session) CancelWithReason(h *JobHandle, reason CancelReason) error {
	if s.closed {
		return ErrSessionClosed
	}
	if s.jr != nil {
		return errors.New("cloud: a journaled session cannot cancel: its input log records submissions only, so Recover would lose the cancel")
	}
	if h == nil || h.ms.sess != s {
		return fmt.Errorf("cloud: handle does not belong to this session")
	}
	switch reason {
	case "":
		reason = CancelUser
	case CancelUser, CancelPreempted, CancelPatience, CancelWindow:
	default:
		return fmt.Errorf("cloud: unknown cancel reason %q", reason)
	}
	ms := h.ms
	at := ms.frontier
	if sub := ms.toSec(h.spec.SubmitTime); at < sub || math.IsInf(at, -1) {
		at = sub
	}
	return ms.cancel(h, at, reason)
}

// AdvanceTo moves every machine's frontier to t, processing all
// arrivals, starts, completions, downtimes and queue samples strictly
// before it. Machines advance in parallel under the config's worker
// budget; each is an independent event loop, so the result does not
// depend on the worker count.
func (s *Session) AdvanceTo(t time.Time) {
	if s.closed {
		return
	}
	s.forEachSim(func(ms *machineSim) { ms.advanceTo(ms.toSec(t)) })
	if s.jr != nil {
		s.journalAfterAdvance(t)
	}
}

// forEachSim runs fn on every machine under the config's worker
// budget, longest expected run first: workers pull machines in that
// order, so the heaviest machine is not the one left running alone at
// the end. Each machine writes only its own state and results are read
// back by fleet index, so the order is invisible in every output.
func (s *Session) forEachSim(fn func(ms *machineSim)) {
	par.ForEach(len(s.order), s.cfg.Workers, func(k int) { fn(s.sims[s.order[k]]) })
}

// QueueState returns the live queue snapshot of one machine at its
// current frontier.
func (s *Session) QueueState(machine string) (QueueSnapshot, error) {
	ms := s.sim(machine)
	if ms == nil {
		return QueueSnapshot{}, fmt.Errorf("cloud: unknown machine %q", machine)
	}
	return ms.snapshot(), nil
}

// Stats returns every machine's lifecycle counts in fleet order, the
// order Machines returns. Each machine counts on its own goroutine as
// it advances, so Stats is read between steps: mid-run once AdvanceTo
// returns, and after Run or Close.
func (s *Session) Stats() []MachineCounts {
	out := make([]MachineCounts, len(s.sims))
	for i, ms := range s.sims {
		out[i] = ms.counts
	}
	return out
}

// Run advances every machine to the end of the window, assembles the
// trace exactly as the batch simulation does (job IDs in fleet order,
// then submit-time order), and closes the session. A journaled session
// drains through its journal and reads the trace back from disk — the
// bytes are identical either way.
func (s *Session) Run() (*trace.Trace, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.jr != nil {
		cfg := s.cfg
		if _, err := s.DrainJournal(); err != nil {
			return nil, err
		}
		return ReadJournalTrace(cfg)
	}
	ord := newTraceOrder(len(s.sims))
	s.forEachSim(func(ms *machineSim) {
		ms.finalize()
		ord.sort(ms.idx, ms.jobs)
	})
	out := &trace.Trace{Jobs: ord.merge(nil)}
	for _, ms := range s.sims {
		out.Machines = append(out.Machines, ms.mstats)
	}
	s.Close()
	return out, nil
}

// Close releases the session: further calls fail. Closing a session
// that is already closed (Run closes implicitly) is safe — it touches
// nothing and reports ErrSessionClosed so misuse is visible.
func (s *Session) Close() error {
	if s.closed {
		return ErrSessionClosed
	}
	s.closed = true
	if s.jr != nil {
		return s.jr.close()
	}
	return nil
}

// ErrSessionClosed is returned by every Session call made after Close
// (including a second Close).
var ErrSessionClosed = errors.New("cloud: session is closed")

// ErrTransientSubmit marks a fault-injected API-level submission
// rejection: the job was NOT accepted, and the client may retry
// (errors.Is-matchable; SubmitRetried does this automatically).
var ErrTransientSubmit = errors.New("cloud: transient submit failure")
