package cloud

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/par"
	"qcloud/internal/trace"
)

// EventKind classifies session events.
type EventKind string

// Session event kinds.
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

// CancelReason classifies why a job was withdrawn. It rides on the
// terminal cancel event so consumers can tell a tenant-broker
// preemption (the job will be requeued and tried again) apart from a
// user giving up — the two move opposite directions in fairness
// accounting.
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

// Event is one observation from the simulated cloud's lifecycle stream.
type Event struct {
	Kind    EventKind
	Machine string
	// Time is the simulated instant of the event.
	Time time.Time
	// Background marks events of the modeled non-study population.
	Background bool
	// Pending is the queue length after the event (for enqueue/start/
	// terminal events) or the sampled value (for pending-sample).
	Pending int
	// Job is the trace record for terminal study-job events.
	Job *trace.Job
	// Handle identifies the study job for enqueue/start/terminal
	// events (nil for background jobs).
	Handle *JobHandle
	// Downtime is the window for downtime and machine-down/up events.
	Downtime [2]time.Time
	// Attempt is the execution attempt the event belongs to (0 = first
	// try; for retry/requeue events, the upcoming attempt).
	Attempt int
	// NextAttemptAt is when a retry re-enters the queue (retry events
	// only).
	NextAttemptAt time.Time
	// Reason classifies cancel events (empty for other kinds).
	Reason CancelReason
}

// EventFilter selects which events an observer receives. Nil slices
// mean "everything"; an explicitly empty (non-nil) slice matches
// nothing. The distinction matters to callers that build filters
// programmatically: appending zero kinds to an allocated slice must
// not silently subscribe to the whole stream.
type EventFilter struct {
	// Kinds restricts to the listed kinds (nil = all kinds, empty
	// non-nil = none).
	Kinds []EventKind
	// StudyOnly drops background-population events.
	StudyOnly bool
}

// JobHandle identifies a study job submitted to a session; it is the
// token Cancel takes and the correlation key events carry.
type JobHandle struct {
	spec    *JobSpec
	machine string
	sess    *Session
}

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
// lifecycle events streamed. The batch Simulate call is a thin wrapper
// (open, submit everything, run) and produces bit-identical traces.
//
// A Session is driven from one goroutine: Submit/Cancel/AdvanceTo/
// QueueState/Run must not be called concurrently with each other.
// Event channels returned by Observe deliver asynchronously and may be
// consumed from any goroutine.
type Session struct {
	cfg  Config
	sims []*machineSim
	// fleet indexes sims by machine name.
	fleet FleetIndex
	// order lists sims indices heaviest expected background load first:
	// the order forEachSim hands machines to workers.
	order []int

	obsMu     sync.Mutex
	observers []*observer
	hasObs    atomic.Bool
	closed    bool

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

// Machines returns the fleet in machine-index order — the index a
// RecordSink call reports. Callers must not mutate the slice.
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
	if _, ok := f[spec.Machine]; !ok {
		return fmt.Errorf("cloud: study job targets unknown machine %q", spec.Machine)
	}
	if spec.BatchSize < 1 || spec.Shots < 1 {
		return fmt.Errorf("cloud: study job has batch size %d and %d shots, want at least 1 of each", spec.BatchSize, spec.Shots)
	}
	return nil
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
	if err := s.fleet.Check(spec); err != nil {
		return nil, err
	}
	ms := s.sim(spec.Machine)
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
	if h == nil || h.sess != s {
		return "", fmt.Errorf("cloud: handle does not belong to this session")
	}
	return s.sim(h.machine).jobState(h.spec), nil
}

// Cancel withdraws a submitted job that has not finished; it is
// recorded as CANCELLED at the machine's current frontier (or its
// submit instant, if that is later). The terminal event carries
// CancelUser.
func (s *Session) Cancel(h *JobHandle) error {
	return s.CancelWithReason(h, CancelUser)
}

// CancelWithReason is Cancel with an explicit classification on the
// terminal event — CancelPreempted is how the tenant broker marks a
// withdrawal it will follow with a requeue, keeping preemptions
// distinguishable from users giving up in event tallies and metrics.
func (s *Session) CancelWithReason(h *JobHandle, reason CancelReason) error {
	if s.closed {
		return ErrSessionClosed
	}
	if h == nil || h.sess != s {
		return fmt.Errorf("cloud: handle does not belong to this session")
	}
	if reason == "" {
		reason = CancelUser
	}
	ms := s.sim(h.machine)
	at := ms.frontier
	if sub := ms.toSec(h.spec.SubmitTime); at < sub || math.IsInf(at, -1) {
		at = sub
	}
	return ms.cancel(h.spec, at, reason)
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

// Observe subscribes to the session's event stream. The returned
// channel delivers events matching the filter without ever blocking
// the simulation (delivery is buffered and pumped asynchronously) and
// closes once the session ends and the backlog has drained. Observing
// a closed session returns ErrSessionClosed.
func (s *Session) Observe(f EventFilter) (<-chan Event, error) {
	o := newObserver(f)
	s.obsMu.Lock()
	closed := s.closed
	if !closed {
		s.observers = append(s.observers, o)
	}
	s.obsMu.Unlock()
	if closed {
		return nil, ErrSessionClosed
	}
	s.hasObs.Store(true)
	go o.pump()
	return o.ch, nil
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
	s.forEachSim((*machineSim).finalize)
	// Job IDs are assigned in (machine order, record order) — the
	// exact sequence the serial batch loop produced — keeping traces
	// bit-identical across worker counts.
	out := &trace.Trace{}
	var nextID int64
	for _, ms := range s.sims {
		for _, j := range ms.jobs {
			nextID++
			j.ID = nextID
		}
		out.Jobs = append(out.Jobs, ms.jobs...)
		out.Machines = append(out.Machines, ms.mstats)
	}
	sort.Slice(out.Jobs, func(i, j int) bool {
		if !out.Jobs[i].SubmitTime.Equal(out.Jobs[j].SubmitTime) {
			return out.Jobs[i].SubmitTime.Before(out.Jobs[j].SubmitTime)
		}
		return out.Jobs[i].ID < out.Jobs[j].ID
	})
	s.Close()
	return out, nil
}

// Close releases the session: further calls fail, and observer
// channels close once their backlog drains. Closing a session that is
// already closed (Run closes implicitly) is safe — it touches nothing
// and reports ErrSessionClosed so misuse is visible without
// panicking on the cond-pumped observer buffers.
func (s *Session) Close() error {
	s.obsMu.Lock()
	if s.closed {
		s.obsMu.Unlock()
		return ErrSessionClosed
	}
	s.closed = true
	obs := s.observers
	s.observers = nil
	s.obsMu.Unlock()
	for _, o := range obs {
		o.finish()
	}
	if s.jr != nil {
		return s.jr.close()
	}
	return nil
}

// dispatch fans an event out to matching observers. Machines advance
// in parallel, so this is the only cross-machine synchronization point
// — and it is only reached when at least one observer is attached.
func (s *Session) dispatch(ev Event) {
	s.obsMu.Lock()
	obs := s.observers
	s.obsMu.Unlock()
	for _, o := range obs {
		if o.matches(ev) {
			o.send(ev)
		}
	}
}

// ErrSessionClosed is returned by every Session call made after Close
// (including a second Close).
var ErrSessionClosed = errors.New("cloud: session is closed")

// ErrTransientSubmit marks a fault-injected API-level submission
// rejection: the job was NOT accepted, and the client may retry
// (errors.Is-matchable; SubmitRetried does this automatically).
var ErrTransientSubmit = errors.New("cloud: transient submit failure")

// observer buffers matched events and pumps them to its channel from a
// dedicated goroutine, so a slow (or absent) consumer can never stall
// the simulation.
type observer struct {
	kinds map[EventKind]bool
	study bool
	ch    chan Event

	mu   sync.Mutex
	cond *sync.Cond
	buf  []Event
	done bool
}

func newObserver(f EventFilter) *observer {
	o := &observer{study: f.StudyOnly, ch: make(chan Event, 64)}
	// A non-nil slice builds a restriction map even when empty: an
	// empty non-nil filter matches nothing, only nil means "all".
	if f.Kinds != nil {
		o.kinds = make(map[EventKind]bool, len(f.Kinds))
		for _, k := range f.Kinds {
			o.kinds[k] = true
		}
	}
	o.cond = sync.NewCond(&o.mu)
	return o
}

func (o *observer) matches(ev Event) bool {
	if o.study && ev.Background {
		return false
	}
	if o.kinds != nil && !o.kinds[ev.Kind] {
		return false
	}
	return true
}

func (o *observer) send(ev Event) {
	o.mu.Lock()
	o.buf = append(o.buf, ev)
	o.mu.Unlock()
	o.cond.Signal()
}

func (o *observer) finish() {
	o.mu.Lock()
	o.done = true
	o.mu.Unlock()
	o.cond.Broadcast()
}

// pump is the session's owned event-delivery goroutine: it drains the
// observer's cond-pumped buffer into the subscriber channel so a slow
// consumer can never stall the sim. Delivery order within a machine is
// the advance loop's emission order (dispatch appends under the buffer
// lock); cross-machine interleaving is unordered by design.
//
//qcloud:eventowner
func (o *observer) pump() {
	for {
		o.mu.Lock()
		for len(o.buf) == 0 && !o.done {
			o.cond.Wait()
		}
		batch := o.buf
		o.buf = nil
		done := o.done
		o.mu.Unlock()
		for _, ev := range batch {
			o.ch <- ev
		}
		if done {
			o.mu.Lock()
			drained := len(o.buf) == 0
			o.mu.Unlock()
			if drained {
				close(o.ch)
				return
			}
		}
	}
}
