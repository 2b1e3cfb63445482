package cloud

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/fault"
	"qcloud/internal/stats"
	"qcloud/internal/trace"
)

// countingSource wraps the machine RNG source and counts state steps.
// Every Int63 or Uint64 call advances the underlying generator exactly
// once, so the count alone pins the RNG state: a restored machine
// replays construction (deterministic) and then fast-forwards the
// source by the checkpointed draw count. The generator is held by
// value, so a draw is one dynamic call (rand.Rand to here) with the
// lagged-Fibonacci step inlined, not a second hop through
// rand.Source64.
type countingSource struct {
	src   stats.Source
	draws uint64
}

func newCountingSource(seed int64) *countingSource {
	c := &countingSource{}
	c.Seed(seed)
	return c
}

//qcloud:noalloc
func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

//qcloud:noalloc
func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

// Seed restarts the stream and its count: draws counts steps since the
// last Seed, which is what restore fast-forwards from a freshly seeded
// source.
//
//qcloud:noalloc
func (c *countingSource) Seed(s int64) {
	c.src.Seed(s)
	c.draws = 0
}

// dtWin is one downtime window: a planned maintenance window from the
// vendor calendar, or (fault=true) an unplanned outage from the fault
// injector. Both displace starts identically; only planned windows are
// visible to schedulers ahead of time.
type dtWin struct {
	start, end float64
	fault      bool
}

// pendingRetry is a transiently-failed job waiting out its backoff: a
// third arrival source (after the background stream and the study spec
// stream) that re-enters the queue through the same enqueue path.
type pendingRetry struct {
	h        *JobHandle // nil for background jobs
	at       float64    // requeue instant (failure time + backoff)
	execSec  float64
	patience float64
	user     string
	id       int64
	attempt  int
}

// machineSim is one machine's single-server fair-share queue as an
// explicit, steppable state machine: the queue heap, background
// arrival stream, downtime cursor, fair-share accounting, and pending
// study submissions that the old run-to-completion loop kept in
// closures. advanceTo moves it forward event by event, which is what
// lets a Session accept submissions and serve queue snapshots mid-run
// while staying bit-identical to the batch simulation.
//
// Determinism contract: every action advanceTo(t) takes has effects
// strictly before t, and no arrival at or after t is consumed. A spec
// submitted with SubmitTime >= the frontier therefore lands in exactly
// the position — and consumes RNG draws in exactly the order — it
// would have occupied had it been present from the start.
type machineSim struct {
	cfg    Config
	m      *backend.Machine
	sess   *Session
	r      *rand.Rand
	rsrc   *countingSource // r's source; its draw count pins the RNG state
	mstats *trace.MachineStats
	jobs   []*trace.Job

	simStart time.Time
	online   time.Time
	dead     bool // never online within the window: records nothing
	endSec   float64

	bg        *backgroundStream
	downtimes []dtWin
	dtIdx     int

	// Fault-injection state: unplanned outage windows (also merged
	// into downtimes), with the announcement cursor that counts
	// machine-down/up as the frontier crosses them; failure
	// bursts and staleness waves with their own monotone cursors; and
	// the submit-fault sequence number.
	outages   []fault.Window
	annIdx    int
	annPhase  int // 0 = down not yet announced, 1 = up pending
	bursts    []fault.Window
	burstIdx  int
	staleWins []fault.Window
	staleIdx  int
	submitSeq int64

	// Retry state: the effective policy (nil = disabled), pending
	// retries ordered by requeue instant, and per-user budget spent.
	retry      *RetryPolicy
	retries    []pendingRetry
	retrySpent map[string]int

	// Fair-share usage accounting, exponentially decayed. Background
	// user n's accumulator is bgAccts[n] and its name bgNames[n] (the
	// session's shared "bg-<n>" table); every other name lives in
	// namedAccts. account resolves a name to either.
	bgAccts    []acct
	bgNames    []string
	namedAccts map[string]*acct

	queue jobHeap
	// free holds served queue records for reuse, so a steady-state
	// arrival allocates nothing.
	free       []*queuedJob
	seq        int64
	waitRatios []float64

	// specs holds the pending (not yet admitted) study submissions'
	// handles sorted by SubmitTime (ties keep submission order);
	// admission pops the head. headSpecSec caches nextSpecTime for
	// specs[0] while headSpec still points at it.
	specs       []*JobHandle
	headSpec    *JobHandle
	headSpecSec float64

	sampleEvery float64
	nextSample  float64

	busyUntil float64

	// frontier is the sup of consumed arrival times; when
	// frontierInclusive, arrivals at exactly frontier are consumed too.
	// Submissions behind the frontier are rejected: the machine's
	// history up to it is already committed.
	frontier          float64
	frontierInclusive bool

	// A started job whose completion horizon has not been fully
	// admitted yet: the in-flight half of the legacy loop's busy step.
	inStep             bool
	stepEndsAt         float64
	admittedDuringStep int

	finished bool

	// idx is the machine's fleet position (selects its journal stream);
	// jbuf is the reused journal-frame encode buffer, and jrec the
	// record a journaled session encodes into it.
	idx  int
	jbuf []byte
	jrec trace.Job

	// counts is the lifecycle tally Session.Stats reports. It starts at
	// zero at Open and Restore and is not checkpointed.
	counts MachineCounts
}

// backgroundUserNames interns the background pool's fair-share keys,
// "bg-<n>" for n < users, once per session.
func backgroundUserNames(users int) []string {
	names := make([]string, max(users, 0))
	for n := range names {
		names[n] = "bg-" + strconv.Itoa(n)
	}
	return names
}

// backgroundUserIndex inverts backgroundUserNames: it reports n when
// user is exactly names[n], so a study user (or a checkpointed name)
// spelled like a background user resolves to the same accumulator.
// Anything else — outside the pool, or a non-canonical spelling such as
// "bg-07" — is an ordinary name.
func backgroundUserIndex(user string, names []string) (int, bool) {
	digits, ok := strings.CutPrefix(user, "bg-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 || n >= len(names) || names[n] != user {
		return 0, false
	}
	return n, true
}

func newMachineSim(cfg Config, m *backend.Machine, sess *Session, bgNames []string) *machineSim {
	src := newCountingSource(cfg.Seed*7919 + m.Seed)
	ms := &machineSim{
		cfg:        cfg,
		m:          m,
		sess:       sess,
		r:          rand.New(src),
		rsrc:       src,
		mstats:     &trace.MachineStats{Name: m.Name, Qubits: m.NumQubits(), Public: m.Public},
		simStart:   cfg.Start,
		bgAccts:    make([]acct, len(bgNames)),
		bgNames:    bgNames,
		namedAccts: make(map[string]*acct),
		frontier:   math.Inf(-1),
	}
	online := m.Online
	if online.Before(cfg.Start) {
		online = cfg.Start
	}
	offline := cfg.End
	if !m.Retired.IsZero() && m.Retired.Before(offline) {
		offline = m.Retired
	}
	ms.online = online
	if !online.Before(offline) {
		ms.dead = true
		ms.finished = true
		return ms
	}
	ms.bg = newBackgroundStream(cfg.Background, m, ms.r,
		ms.toSec(online), ms.toSec(offline),
		ms.toSec(m.Online), ms.toSec(backend.StudyEnd))
	for _, w := range genDowntimes(ms.r, ms.toSec(online), ms.toSec(offline)) {
		ms.downtimes = append(ms.downtimes, dtWin{start: w[0], end: w[1]})
	}
	ms.endSec = ms.toSec(offline)
	if cfg.Faults != nil {
		// Unplanned outages join the displacement calendar (tagged so
		// snapshots keep them invisible until begun); bursts and stale
		// waves only modulate error rates. All three are pure functions
		// of (seed, machine, epoch), independent of ms.r.
		ms.outages = cfg.Faults.Outages(cfg.Seed, m.Seed, ms.toSec(online), ms.endSec)
		for _, w := range ms.outages {
			ms.downtimes = append(ms.downtimes, dtWin{start: w.Start, end: w.End, fault: true})
		}
		sort.Slice(ms.downtimes, func(i, j int) bool { return ms.downtimes[i].start < ms.downtimes[j].start })
		ms.bursts = cfg.Faults.Bursts(cfg.Seed, m.Seed, ms.toSec(online), ms.endSec)
		ms.staleWins = cfg.Faults.StaleWaves(cfg.Seed, m.Seed, ms.toSec(online), ms.endSec)
	}
	if cfg.Retry != nil {
		ms.retry = cfg.Retry.withDefaults()
		ms.retrySpent = make(map[string]int)
	}
	ms.sampleEvery = cfg.PendingSampleEvery.Seconds()
	ms.nextSample = ms.toSec(online) + ms.sampleEvery
	ms.busyUntil = ms.toSec(online)
	return ms
}

// expectedLoad estimates the machine's simulation cost as its expected
// background arrivals at full demand: peak rate times online window
// (zero for a machine that is never online).
func (ms *machineSim) expectedLoad() float64 {
	if ms.dead {
		return 0
	}
	return ms.bg.peakRate * (ms.bg.endSec - ms.bg.startSec)
}

func (ms *machineSim) toSec(t time.Time) float64 { return t.Sub(ms.simStart).Seconds() }
func (ms *machineSim) toTime(s float64) time.Time {
	return ms.simStart.Add(time.Duration(s * float64(time.Second)))
}

// submit inserts a study spec into the pending stream. It fails when
// the spec's submit instant lies behind the frontier: that history has
// already been observed (and its RNG draws consumed), so admitting the
// job late would fork the trace.
func (ms *machineSim) submit(spec *JobSpec) (*JobHandle, error) {
	sec := ms.toSec(spec.SubmitTime)
	if !ms.dead && (sec < ms.frontier || (sec == ms.frontier && ms.frontierInclusive)) {
		return nil, fmt.Errorf("cloud: submit to %s at %s is behind the machine frontier %s",
			ms.m.Name, spec.SubmitTime.Format(time.RFC3339), ms.toTime(ms.frontier).Format(time.RFC3339))
	}
	if f := ms.cfg.Faults; f != nil && f.SubmitErrorRate > 0 && !ms.dead {
		// Transient submission failure: the cloud API rejects the call
		// and the client retries. The decision hashes the per-machine
		// attempt counter, so a resubmission is a fresh draw.
		ms.submitSeq++
		if fault.Decide(f.SubmitErrorRate, ms.cfg.Seed, ms.m.Seed, ms.submitSeq, 7) {
			return nil, fmt.Errorf("%w: %s rejected attempt %d", ErrTransientSubmit, ms.m.Name, ms.submitSeq)
		}
	}
	return ms.insertSpec(spec), nil
}

// insertSpec places an accepted spec into the pending stream keeping
// SubmitTime order; equal times go after existing entries, so replaying
// the same arrival order reproduces the trace. A spec no earlier than
// the tail — every one, when submissions come in time order — is
// appended without a search.
func (ms *machineSim) insertSpec(spec *JobSpec) *JobHandle {
	h := &JobHandle{spec: spec, ms: ms}
	if n := len(ms.specs); n == 0 || !spec.SubmitTime.Before(ms.specs[n-1].spec.SubmitTime) {
		ms.specs = append(ms.specs, h)
		return h
	}
	i := sort.Search(len(ms.specs), func(k int) bool {
		return ms.specs[k].spec.SubmitTime.After(spec.SubmitTime)
	})
	ms.specs = slices.Insert(ms.specs, i, h)
	return h
}

// resubmitJournaled replays an accepted submission from the journal's
// input log: no fault decision is re-taken (the recorded submit-fault
// sequence is restored instead), so the replayed admission stream is
// exactly the one the crashed run saw.
func (ms *machineSim) resubmitJournaled(spec *JobSpec, submitSeq int64) error {
	sec := ms.toSec(spec.SubmitTime)
	if !ms.dead && (sec < ms.frontier || (sec == ms.frontier && ms.frontierInclusive)) {
		return fmt.Errorf("cloud: journal replay: submit to %s at %s is behind the restored frontier %s (journal and checkpoint disagree)",
			ms.m.Name, spec.SubmitTime.Format(time.RFC3339), ms.toTime(ms.frontier).Format(time.RFC3339))
	}
	if submitSeq > ms.submitSeq {
		ms.submitSeq = submitSeq
	}
	ms.insertSpec(spec)
	return nil
}

// cancel withdraws a study job that has not finished. Jobs still
// waiting (admitted or not) are recorded as CANCELLED at the cancel
// instant; jobs already recorded report an error. reason classifies
// the cancel in Stats.
func (ms *machineSim) cancel(h *JobHandle, atSec float64, reason CancelReason) error {
	if ms.dead {
		return nil // never-online machines record nothing
	}
	if h.recorded {
		return fmt.Errorf("cloud: job on %s already finished", ms.m.Name)
	}
	if h.withdrawn {
		return fmt.Errorf("cloud: job on %s already cancelled", ms.m.Name)
	}
	if i := slices.Index(ms.specs, h); i >= 0 {
		// Not yet admitted: drop it from the pending stream and record
		// the cancellation immediately.
		ms.specs = slices.Delete(ms.specs, i, i+1)
		at := ms.toTime(atSec)
		if at.Before(h.spec.SubmitTime) {
			at = h.spec.SubmitTime
		}
		ms.record(h, at, at, trace.StatusCancelled, reason)
		return nil
	}
	// Admitted and waiting in the queue: mark it; the record lands when
	// the server reaches it (the same path patience cancellations take).
	h.withdrawn, h.cancelAt, h.reason = true, atSec, reason
	return nil
}

// account resolves a fair-share key to its accumulator, creating it on
// first sight. Only named paths come through here (study specs,
// retries, restore); background arrivals index bgAccts directly.
func (ms *machineSim) account(user string) *acct {
	if n, ok := backgroundUserIndex(user, ms.bgNames); ok {
		return &ms.bgAccts[n]
	}
	a := ms.namedAccts[user]
	if a == nil {
		a = &acct{}
		ms.namedAccts[user] = a
	}
	return a
}

// newQueued returns a queue record to fill in: a recycled one when the
// free list has any.
func (ms *machineSim) newQueued() *queuedJob {
	if n := len(ms.free); n > 0 {
		q := ms.free[n-1]
		ms.free = ms.free[:n-1]
		return q
	}
	return &queuedJob{}
}

func (ms *machineSim) enqueue(h *JobHandle, submit, execSec, patience float64, user string, a *acct) {
	u := a.charged(submit)
	ms.seq++
	q := ms.newQueued()
	// Every field is stored directly (attempt included, since q may be
	// recycled): assigning a composite literal through the pointer
	// builds it on the stack and block-copies it, once per arrival.
	q.h, q.submit, q.execSec, q.patience = h, submit, execSec, patience
	q.priority, q.seq, q.acct = submit+fairSharePenalty*u, ms.seq, a
	q.user, q.id, q.attempt, q.pendingAtSubmit = user, ms.seq, 0, len(ms.queue)
	ms.push(q)
}

// requeue re-enters a transiently-failed job after its backoff: same
// fair-share scoring as a fresh arrival (a retry queues like anyone
// else — no priority boost), with the original job identity carried
// through. Counts requeue then enqueue, keeping retry ≡ requeue and
// enqueue ≡ start+cancel conservation.
func (ms *machineSim) requeue(rt pendingRetry) {
	a := ms.account(rt.user)
	u := a.charged(rt.at)
	ms.seq++
	q := ms.newQueued()
	*q = queuedJob{
		h: rt.h, submit: rt.at, execSec: rt.execSec, patience: rt.patience,
		priority: rt.at + fairSharePenalty*u, seq: ms.seq, acct: a,
		user: rt.user, id: rt.id, attempt: rt.attempt,
		pendingAtSubmit: len(ms.queue),
	}
	ms.pop(rt.h).Requeue++
	ms.push(q)
}

// push is the shared enqueue tail: heap insert, in-flight-step
// accounting, and the enqueue count.
func (ms *machineSim) push(q *queuedJob) {
	ms.queue.push(q)
	if ms.inStep {
		ms.admittedDuringStep++
	}
	ms.pop(q.h).Enqueue++
}

// scheduleRetry inserts a pending retry keeping (at, id) order, so
// admission order is deterministic even when backoffs collide.
func (ms *machineSim) scheduleRetry(rt pendingRetry) {
	i := sort.Search(len(ms.retries), func(k int) bool {
		if ms.retries[k].at != rt.at {
			return ms.retries[k].at > rt.at
		}
		return ms.retries[k].id > rt.id
	})
	ms.retries = append(ms.retries, pendingRetry{})
	copy(ms.retries[i+1:], ms.retries[i:])
	ms.retries[i] = rt
}

func (ms *machineSim) nextRetryTime() (float64, bool) {
	if len(ms.retries) == 0 {
		return 0, false
	}
	return ms.retries[0].at, true
}

// nextSpecTime is the head pending spec's arrival instant. The admit
// loop asks once per background arrival, so the time.Time arithmetic
// is done once per head spec and remembered against its pointer.
func (ms *machineSim) nextSpecTime() (float64, bool) {
	if len(ms.specs) == 0 {
		return 0, false
	}
	h := ms.specs[0]
	if h != ms.headSpec {
		at := h.spec.SubmitTime
		if at.Before(ms.online) {
			// Submitted before machine online: queue at online time.
			at = ms.online
		}
		ms.headSpec, ms.headSpecSec = h, ms.toSec(at)
	}
	return ms.headSpecSec, true
}

// admitArrivals pulls every arrival (retry + study + background) with
// submit time <= horizon — or strictly < horizon when strict, the
// partial admission an in-flight step uses so arrivals at the
// observation instant itself stay unconsumed — into the queue. Retries
// win ties (they consume no RNG draws, so admitting them first keeps
// the draw order independent of retry timing), then background, then
// study specs, matching the batch loop's order.
func (ms *machineSim) admitArrivals(horizon float64, strict bool) {
	for {
		bgT, bgOK := ms.bg.peek()
		spT, spOK := ms.nextSpecTime()
		rtT, rtOK := ms.nextRetryTime()
		if strict {
			bgOK = bgOK && bgT < horizon
			spOK = spOK && spT < horizon
			rtOK = rtOK && rtT < horizon
		} else {
			bgOK = bgOK && bgT <= horizon
			spOK = spOK && spT <= horizon
			rtOK = rtOK && rtT <= horizon
		}
		switch {
		case rtOK && (!bgOK || rtT <= bgT) && (!spOK || rtT <= spT):
			rt := ms.retries[0]
			ms.retries = ms.retries[1:]
			ms.requeue(rt)
		case bgOK && (!spOK || bgT <= spT):
			ms.bg.next()
			execSec := ms.bg.sampleExecSeconds(ms.r)
			n := ms.r.Intn(len(ms.bgAccts))
			ms.enqueue(nil, bgT, execSec, ms.bg.samplePatience(ms.r), ms.bgNames[n], &ms.bgAccts[n])
			ms.mstats.BackgroundJobs++
		case spOK:
			// Pop the head, clearing its slot: once recorded, the
			// handle is held nowhere.
			h := ms.specs[0]
			ms.specs[0] = nil
			ms.specs = ms.specs[1:]
			s := h.spec
			execSec := ms.m.ExecSeconds(s.BatchSize, s.Shots, s.TotalDepth) * (0.9 + 0.2*ms.r.Float64())
			ms.enqueue(h, spT, execSec, s.PatienceSec, s.User, ms.account(s.User))
		default:
			return
		}
	}
}

// samplePending takes queue-length samples up to now. pending is
// passed explicitly because an in-flight step's deferred sampling must
// report the queue length before that step's admissions, matching the
// batch loop's sample-then-admit call order.
func (ms *machineSim) samplePending(now float64, pending int) {
	for ms.nextSample <= now && ms.nextSample <= ms.endSec {
		s := trace.PendingSample{Machine: ms.m.Name, Time: ms.toTime(ms.nextSample), Pending: pending}
		ms.mstats.PendingSamples = append(ms.mstats.PendingSamples, s)
		ms.counts.PendingSample++
		ms.nextSample += ms.sampleEvery
	}
}

// afterDowntime displaces a start time past any downtime windows it
// lands in — planned maintenance and unplanned fault outages alike.
// Start times are monotone (the server is serial), so a moving index
// applies the displacement in O(1) amortized. Back-to-back (or
// overlapping, once outages join the calendar) windows displace a
// start repeatedly until it lands in uptime. Planned windows count as
// Downtime; outages are counted by the machine-down/up announcements
// instead.
func (ms *machineSim) afterDowntime(t float64) float64 {
	for ms.dtIdx < len(ms.downtimes) && t >= ms.downtimes[ms.dtIdx].end {
		ms.dtIdx++
	}
	for ms.dtIdx < len(ms.downtimes) && t >= ms.downtimes[ms.dtIdx].start {
		win := ms.downtimes[ms.dtIdx]
		if win.end > t {
			t = win.end
		}
		ms.dtIdx++
		if !win.fault {
			ms.counts.Downtime++
		}
	}
	return t
}

// announceFaults counts machine-down/up for every outage boundary the
// frontier has crossed.
func (ms *machineSim) announceFaults() {
	f := ms.frontier
	for ms.annIdx < len(ms.outages) {
		w := ms.outages[ms.annIdx]
		if ms.annPhase == 0 {
			if w.Start > f {
				return
			}
			ms.counts.MachineDown++
			ms.annPhase = 1
		}
		if w.End > f {
			return
		}
		ms.counts.MachineUp++
		ms.annPhase = 0
		ms.annIdx++
	}
}

// record appends the study job's trace record and counts its terminal
// state; reason classifies a cancellation.
func (ms *machineSim) record(h *JobHandle, startT, endT time.Time, status trace.Status, reason CancelReason) {
	s := h.spec
	// Journal mode streams the record to disk and retains nothing — the
	// constant-memory contract for million-job sessions — so the record
	// is the machine's scratch one; otherwise the trace keeps it.
	jr := ms.journal()
	j := &ms.jrec
	if jr == nil {
		j = new(trace.Job)
	}
	*j = trace.Job{
		User: s.User, Machine: ms.m.Name,
		MachineQubits: ms.m.NumQubits(), Public: ms.m.Public,
		CircuitName: s.CircuitName, BatchSize: s.BatchSize, Shots: s.Shots,
		Width: s.Width, TotalDepth: s.TotalDepth, TotalGateOps: s.TotalGateOps,
		CXTotal: s.CXTotal, MemSlots: s.MemSlots,
		SubmitTime: s.SubmitTime, StartTime: startT, EndTime: endT,
		Status:       status,
		CompileEpoch: ms.m.CalibrationEpochAt(s.SubmitTime),
		ExecEpoch:    ms.m.CalibrationEpochAt(startT),
	}
	if jr != nil {
		jr.appendJob(ms, j)
	} else {
		ms.jobs = append(ms.jobs, j)
		h.rec = j
	}
	h.recorded = true
	ms.counts.Study.end(status, reason)
}

// finish ends a served job, study or background, over machine seconds
// [start, end]: a study job is recorded, a background job's terminal
// state is counted.
func (ms *machineSim) finish(q *queuedJob, start, end float64, status trace.Status, reason CancelReason) {
	if q.h == nil {
		ms.counts.Background.end(status, reason)
		return
	}
	startT, endT := ms.toTime(start), ms.toTime(end)
	// Float-second round-tripping can land a nanosecond before the
	// submission instant; clamp to keep records consistent.
	if sub := q.h.spec.SubmitTime; startT.Before(sub) {
		startT = sub
	}
	if endT.Before(startT) {
		endT = startT
	}
	ms.record(q.h, startT, endT, status, reason)
}

// startNext pops the highest-priority queued job, serves it, and
// recycles its record (a scheduled retry has copied what it keeps).
func (ms *machineSim) startNext() {
	q := ms.queue.pop()
	ms.serve(q)
	ms.free = append(ms.free, q)
}

// serve is the first half of the legacy loop's busy step. Completing
// jobs open an in-flight step whose admissions run up to the
// completion horizon.
func (ms *machineSim) serve(q *queuedJob) {
	if q.h != nil && q.h.withdrawn {
		ms.finish(q, q.h.cancelAt, q.h.cancelAt, trace.StatusCancelled, q.h.reason)
		return
	}
	start := ms.busyUntil
	if start < q.submit {
		start = q.submit
	}
	start = ms.afterDowntime(start)
	if start >= ms.endSec {
		// Machine retires/window closes with jobs still queued: they
		// are cancelled at the boundary.
		ms.finish(q, ms.endSec, ms.endSec, trace.StatusCancelled, CancelWindow)
		return
	}
	if q.patience > 0 && start > q.submit+q.patience {
		// User gave up while waiting.
		cancelAt := q.submit + q.patience
		ms.finish(q, cancelAt, cancelAt, trace.StatusCancelled, CancelPatience)
		return
	}
	// Wait-prediction calibration sample (subsampled; background jobs
	// only, on their first attempt, with a non-empty queue at
	// submission — a requeued job's wait says nothing about fresh
	// arrivals).
	if q.h == nil && q.attempt == 0 && q.pendingAtSubmit > 0 && q.seq%13 == 0 {
		ratio := (start - q.submit) / (float64(q.pendingAtSubmit) * ms.bg.meanExec)
		ms.waitRatios = append(ms.waitRatios, ratio)
	}
	ms.pop(q.h).Start++
	status := trace.StatusDone
	execSec := q.execSec
	errRate := errorRate
	if len(ms.staleWins) > 0 {
		// Calibration-staleness wave: jobs started inside it error at a
		// multiple of the base rate. The single RNG draw below stays in
		// its usual position — only the threshold moves — so the draw
		// sequence is unchanged whether or not a wave is active.
		if _, in := fault.At(ms.staleWins, &ms.staleIdx, start); in {
			errRate = math.Min(errRate*ms.cfg.Faults.StaleErrorFactor, 1)
		}
	}
	if ms.r.Float64() < errRate {
		status = trace.StatusError
		execSec *= 0.5 // errored jobs die partway through
	}
	if status == trace.StatusDone && ms.cfg.Faults != nil {
		// Transient backend fault, decided on its own stateless hash
		// stream (no machine-RNG draw): retryable, unlike the job-level
		// error above.
		tRate := ms.cfg.Faults.TransientErrorRate
		if len(ms.bursts) > 0 {
			if _, in := fault.At(ms.bursts, &ms.burstIdx, start); in {
				tRate = ms.cfg.Faults.BurstErrorRate
			}
		}
		if fault.Decide(tRate, ms.cfg.Seed, ms.m.Seed, q.id, int64(q.attempt), 3) {
			ms.startTransientFail(q, start)
			return
		}
	}
	end := start + execSec
	ms.finish(q, start, end, status, "")
	// Charge fair-share usage at completion.
	q.acct.usage += execSec
	ms.busyUntil = end
	ms.inStep = true
	ms.stepEndsAt = end
	ms.admittedDuringStep = 0
}

// startTransientFail serves a started attempt (serve has counted its
// start) that dies to a transient backend fault a quarter of the way
// through: the burnt machine time is charged like any other execution,
// and the job either schedules a retry after its backoff (counting a
// retry, balanced later by a requeue) or finishes with an error when
// the policy is exhausted.
// The failure occupies a normal busy step, preserving the
// start ≡ done+error+retry conservation law.
func (ms *machineSim) startTransientFail(q *queuedJob, start float64) {
	burnt := 0.25 * q.execSec
	failT := start + burnt
	retryable := ms.retry != nil && q.attempt+1 < ms.retry.MaxAttempts
	if retryable && ms.retry.BudgetPerUser > 0 && ms.retrySpent[q.user] >= ms.retry.BudgetPerUser {
		retryable = false
	}
	var retryAt float64
	if retryable {
		retryAt = failT + ms.retry.backoffSec(q.attempt+1, ms.cfg.Seed, ms.m.Seed, q.id)
		// A retry that cannot re-enter the window would orphan its
		// retry (no requeue could balance it): fail terminally
		// instead, so finalize always drains the retry list.
		retryable = retryAt < ms.endSec
	}
	if retryable {
		if ms.retry.BudgetPerUser > 0 {
			ms.retrySpent[q.user]++
		}
		ms.scheduleRetry(pendingRetry{
			h: q.h, at: retryAt, execSec: q.execSec, patience: q.patience,
			user: q.user, id: q.id, attempt: q.attempt + 1,
		})
		ms.pop(q.h).Retry++
	} else {
		ms.finish(q, start, failT, trace.StatusError, "")
	}
	q.acct.usage += burnt
	ms.busyUntil = failT
	ms.inStep = true
	ms.stepEndsAt = failT
	ms.admittedDuringStep = 0
}

func (ms *machineSim) setFrontier(f float64, inclusive bool) {
	if f > ms.frontier {
		ms.frontier, ms.frontierInclusive = f, inclusive
	} else if f == ms.frontier && inclusive {
		ms.frontierInclusive = true
	}
	if len(ms.outages) > 0 {
		ms.announceFaults()
	}
}

// advanceTo processes every machine action whose effects lie strictly
// before sim-second t: it finishes in-flight steps ending before t,
// starts queued jobs, jumps idle gaps to arrivals before t, and admits
// arrivals below t. Arrivals at or after t are never consumed, so a
// subsequent submit at t replays exactly. t = +Inf runs to the end of
// the window (the batch path).
func (ms *machineSim) advanceTo(t float64) {
	if ms.dead {
		return
	}
	jr := ms.journal()
	for {
		// A halted journal (write failure or deterministic kill) stops
		// the machine mid-advance: the crash being modeled stops here.
		if jr != nil && jr.stop.Load() {
			return
		}
		if ms.inStep {
			if ms.stepEndsAt < t {
				// Complete the step: admit everything up to its
				// horizon, then emit the deferred queue samples with
				// the pre-admission length (the batch loop samples
				// before admitting).
				ms.admitArrivals(ms.stepEndsAt, false)
				ms.samplePending(ms.stepEndsAt, len(ms.queue)-ms.admittedDuringStep)
				ms.setFrontier(ms.stepEndsAt, true)
				ms.inStep = false
				continue
			}
			ms.admitArrivals(t, true)
			ms.setFrontier(t, false)
			return
		}
		if len(ms.queue) > 0 {
			ms.startNext()
			continue
		}
		// Idle: jump to the next arrival (background, study spec, or a
		// retry coming off its backoff).
		bgT, bgOK := ms.bg.peek()
		spT, spOK := ms.nextSpecTime()
		rtT, rtOK := ms.nextRetryTime()
		if !bgOK && !spOK && !rtOK {
			ms.setFrontier(t, false)
			if math.IsInf(t, 1) {
				ms.finished = true
			}
			return
		}
		next := math.Inf(1)
		if bgOK {
			next = bgT
		}
		if spOK && spT < next {
			next = spT
		}
		if rtOK && rtT < next {
			next = rtT
		}
		if next >= ms.endSec {
			// Nothing more can start inside the window; remaining
			// specs become boundary cancellations at finalize.
			ms.setFrontier(t, false)
			if math.IsInf(t, 1) {
				ms.finished = true
			}
			return
		}
		if next >= t {
			ms.setFrontier(t, false)
			return
		}
		ms.samplePending(next, len(ms.queue))
		ms.admitArrivals(next, false)
		ms.setFrontier(next, true)
		if ms.busyUntil < next {
			ms.busyUntil = next
		}
	}
}

// finalize runs the machine to the end of the window, records
// boundary cancellations for specs that were never admitted, and
// computes the wait-ratio calibration quantiles.
func (ms *machineSim) finalize() {
	if ms.dead {
		return
	}
	ms.advanceTo(math.Inf(1))
	// Study jobs submitted after the machine went offline (or never
	// admitted before the loop ended) are recorded as cancelled.
	for _, h := range ms.specs {
		at := h.spec.SubmitTime
		if at.Before(ms.online) {
			at = ms.online
		}
		ms.record(h, at, at, trace.StatusCancelled, CancelWindow)
	}
	ms.specs = nil
	if len(ms.waitRatios) >= 30 {
		sorted := stats.SortedCopy(ms.waitRatios)
		qs := stats.QuantilesSorted(sorted, 0.1, 0.5, 0.9)
		ms.mstats.WaitRatioP10, ms.mstats.WaitRatioP50, ms.mstats.WaitRatioP90 = qs[0], qs[1], qs[2]
	}
}

// snapshot reports the live queue state at the machine's frontier.
func (ms *machineSim) snapshot() QueueSnapshot {
	snap := QueueSnapshot{Machine: ms.m.Name}
	if ms.dead {
		return snap
	}
	f := ms.frontier
	if math.IsInf(f, -1) {
		f = ms.toSec(ms.cfg.Start)
	}
	if math.IsInf(f, 1) || f > ms.endSec {
		f = ms.endSec
	}
	snap.Time = ms.toTime(f)
	for _, q := range ms.queue {
		if q.h != nil {
			if q.h.withdrawn {
				// Cancelled while queued: the server discards it on
				// arrival, so it is not load a scheduler should see.
				continue
			}
			snap.PendingStudy++
		}
		snap.Pending++
		snap.BacklogSeconds += q.execSec
	}
	if ms.busyUntil > f {
		snap.RunningUntil = ms.toTime(ms.busyUntil)
	}
	// Maintenance windows the backlog must ride out: walk the calendar
	// from the cursor, pushing the projected completion across every
	// window it overlaps (a window in progress counts its remainder).
	// Unplanned fault outages are skipped — the vendor's calendar does
	// not know about them, and leaking future outages here would hand
	// schedulers an oracle.
	c := f + snap.BacklogSeconds
	if ms.busyUntil > f {
		c += ms.busyUntil - f
	}
	for _, w := range ms.downtimes[ms.dtIdx:] {
		if w.fault || w.end <= f {
			continue
		}
		if w.start >= c {
			break
		}
		dur := w.end - math.Max(w.start, f)
		snap.DowntimeSeconds += dur
		c += dur
	}
	// An outage in progress at the frontier IS visible: the machine is
	// observably down right now, even though future outages are not.
	snap.Down = fault.Covers(ms.outages, f)
	snap.MeanExecSeconds = ms.bg.meanExec
	return snap
}

// jobState reports where a submitted job currently stands.
func (ms *machineSim) jobState(h *JobHandle) JobState {
	if ms.dead || h.recorded {
		return JobStateFinished
	}
	if h.withdrawn {
		return JobStateWithdrawn
	}
	if slices.Contains(ms.specs, h) {
		return JobStatePending
	}
	for _, q := range ms.queue {
		if q.h == h {
			return JobStateQueued
		}
	}
	for _, rt := range ms.retries {
		if rt.h == h {
			return JobStateQueued
		}
	}
	// Admitted specs are queued, retrying, or recorded the moment they
	// are served; nothing else remains.
	return JobStateFinished
}

func (ms *machineSim) journal() *sessionJournal {
	if ms.sess == nil {
		return nil
	}
	return ms.sess.jr
}

// pop returns the counts of h's population: a study job has a handle,
// a background job none.
func (ms *machineSim) pop(h *JobHandle) *Counts {
	if h == nil {
		return &ms.counts.Background
	}
	return &ms.counts.Study
}
