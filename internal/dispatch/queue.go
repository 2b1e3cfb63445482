// Package dispatch is the service decomposition of the simulator: a
// dispatcher daemon owning a durable pull queue, worker daemons that
// lease trajectory batches and stream results back, and the HTTP
// plumbing between them (the SIMQ dispatcher/simd/psq shape).
//
// The package is deliberately OUTSIDE lint.DeterministicPackages: a
// daemon legitimately reads the wall clock (lease deadlines, drain
// timeouts) and moves data across goroutines. Everything that must be
// deterministic — wire schemas, payload expansion, result
// canonicalization — lives in the dispatch/wire subpackage, which is
// in scope; the merged outputs are pure functions of (seed, sealed
// submission stream) no matter what this package's clocks do.
package dispatch

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"qcloud/internal/cloud"
	"qcloud/internal/dispatch/wire"
	"qcloud/internal/journal"
)

// TaskState is one queue entry's lifecycle state.
type TaskState int

const (
	TaskQueued TaskState = iota
	TaskLeased
	TaskDone
	TaskFailed
	TaskCancelled
	numTaskStates
)

// TaskUnknown is not a lifecycle state: it answers a report that names
// a seq the queue never assigned.
const TaskUnknown TaskState = -1

func (s TaskState) String() string {
	switch s {
	case TaskQueued:
		return "queued"
	case TaskLeased:
		return "leased"
	case TaskDone:
		return "done"
	case TaskFailed:
		return "failed"
	case TaskCancelled:
		return "cancelled"
	case TaskUnknown:
		return "unknown"
	}
	return fmt.Sprintf("TaskState(%d)", int(s))
}

// terminal reports whether the state is final.
func (s TaskState) terminal() bool {
	return s == TaskDone || s == TaskFailed || s == TaskCancelled
}

// Task is one submission's queue entry.
type Task struct {
	Seq     int64
	Key     string
	Spec    wire.Spec
	State   TaskState
	Attempt int // lease attempts consumed (expired leases + the completing one)
	Worker  string
	Counts  []wire.Count // sorted by Bits without repeats
	Err     string

	deadline  time.Time // lease expiry, valid while leased
	notBefore time.Time // retry backoff gate, valid while queued
	// requeuePending marks a retried task whose requeue event has not
	// fired yet (it fires when the backoff gate opens, mirroring the
	// session's retry→requeue pairing).
	requeuePending bool
}

// ErrSealed rejects submissions after Seal.
var ErrSealed = errors.New("dispatch: submission stream sealed")

// QueueConfig parameterizes a durable queue.
type QueueConfig struct {
	// Dir is the queue's state directory: Dir/submits and Dir/results
	// hold the two WAL streams, Dir/checkpoint the watermark file (and a
	// Dispatcher keeps its trace file, Dir/trace, beside them).
	Dir string
	// Seed drives the deterministic backoff jitter (same seed as the
	// workload it queues).
	Seed int64
	// Lease bounds how long a pulled unit may go without a heartbeat
	// before it is requeued (default 30s).
	Lease time.Duration
	// Retry governs lease-expiry requeues through the session's
	// machinery. Each zero field takes a daemon-scale default (5
	// attempts, 500ms base, 15s cap) rather than the session's
	// sim-scale one; the caller's policy is not modified.
	Retry *cloud.RetryPolicy
	// CheckpointEvery writes the watermark checkpoint after this many
	// completion-log appends (default 64; Close always checkpoints).
	CheckpointEvery int
	// SyncEvery fsyncs the WALs every N records (default 0: flush to
	// the OS on every accept — SIGKILL-safe — but no fsync; see
	// journal.Options.SyncEvery).
	SyncEvery int
	// Now supplies wall time (default time.Now; tests inject clocks).
	//
	//qcloud:keep the queue tests' clock until one clock seam replaces it (ROADMAP item 3)
	Now func() time.Time
	// OnEvent, if set, observes the queue's live event stream (called
	// synchronously under the queue lock — keep it cheap and never
	// call back into the queue).
	OnEvent func(wire.Event)
}

func (c QueueConfig) withDefaults() QueueConfig {
	if c.Lease <= 0 {
		c.Lease = 30 * time.Second
	}
	var r cloud.RetryPolicy
	if c.Retry != nil {
		r = *c.Retry
	}
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 5
	}
	if r.BaseBackoff <= 0 {
		r.BaseBackoff = 500 * time.Millisecond
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = 15 * time.Second
	}
	c.Retry = &r
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 64
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Queue is the dispatcher's durable pull queue. Every accepted
// mutation (submit, seal, lease expiry, result, cancel) is appended to
// a WAL, and every call flushes what it appended to the OS — once,
// however many records that was — before it returns, so a SIGKILL at
// any instant loses nothing that was acked; recovery replays both
// streams. Leases are NOT journaled — they are leases precisely
// because losing them is safe: a restarted dispatcher forgets all
// in-flight leases and backoff gates (replay only ever produces queued
// and terminal tasks), the units become pullable again, and the
// deterministic merge makes re-execution idempotent.
//
// No call on the submit or worker path walks the task list: tally
// answers Stats, ready bounds where Pull looks, and timers says which
// leases and backoff gates are due. Only the readouts (CountsCSV, the
// trace plane's inputs) and replay visit every task.
type Queue struct {
	cfg QueueConfig

	mu    sync.Mutex
	err   error // sticky WAL failure; queue refuses mutations after
	tasks []*Task
	// spare is the unused rest of the chunk new tasks are carved from.
	spare []Task
	// byKey is the idempotency index, nil until the first keyed Submit
	// or Cancel builds it (keyIndexLocked): a restart that takes none
	// never does.
	byKey     map[string]int64
	sealed    bool
	recovered bool

	// tally counts tasks per state.
	tally [numTaskStates]int
	// ready is the lease cursor: every task below it is leased,
	// terminal, or queued behind a backoff gate whose timer will pull
	// the cursor back when it opens.
	ready int64
	// timers holds one wake-up per live lease and per closed backoff
	// gate; due is the sweep's scratch list.
	timers timerHeap
	due    []int64

	submits *journal.Writer // submit/seal records
	results *journal.Writer // expire/result/cancel records
	// recBuf is the one buffer every record is encoded through.
	recBuf []byte

	sinceCkpt int
}

// checkpoint is the watermark file: how far each stream had definitely
// been written when the checkpoint was taken. Recovery refuses to
// proceed if a stream's surviving valid prefix is shorter than the
// watermark — that is media damage or tampering, not a crash tail, and
// silently replaying less than was acked would un-happen
// acknowledged work.
type checkpoint struct {
	SubmitRecs int64
	ResultRecs int64
}

const (
	ckptMagic      = "QDC1"
	submitsDirName = "submits"
	resultsDirName = "results"
	ckptName       = "checkpoint"
)

// taskChunk is how many tasks one allocation holds. A chunk never
// grows, so the pointers q.tasks holds into it stay put.
const taskChunk = 256

// minSubmitFrame is the fewest bytes a submit record's frame takes:
// every varint one byte, every string empty.
var minSubmitFrame = int64(len(journal.AppendFrame(nil, wire.AppendWALRecord(nil,
	&wire.WALRecord{Type: wire.WALSubmit, Spec: wire.Spec{TracePlane: wire.TracePlane{SubmitTime: time.Unix(0, 0)}}}))))

// OpenQueue opens (or creates) the durable queue rooted at cfg.Dir,
// replaying any existing state. Each stream is walked once: the scan
// that replays it tells the writer where to resume.
func OpenQueue(cfg QueueConfig) (*Queue, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("dispatch: QueueConfig.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	q := &Queue{cfg: cfg}

	subDir := filepath.Join(cfg.Dir, submitsDirName)
	resDir := filepath.Join(cfg.Dir, resultsDirName)

	// The watermark is read before the scans, which it sizes the task
	// table for, and checked after them.
	ck, err := readCheckpoint(filepath.Join(cfg.Dir, ckptName))
	if err != nil {
		return nil, err
	}
	if ck != nil && ck.SubmitRecs > 0 {
		// Believe the watermark only as far as the stream's bytes could
		// hold that many records: a damaged one must not size anything.
		size, err := journal.Size(subDir)
		if err != nil {
			return nil, fmt.Errorf("dispatch: sizing submit log: %w", err)
		}
		q.tasks = make([]*Task, 0, min(ck.SubmitRecs, size/minSubmitFrame))
	}

	// One record is decoded at a time, into rec.
	var rec wire.WALRecord
	subScan, err := journal.ForEach(subDir, func(i int64, payload []byte) error {
		return q.replaySubmit(i, payload, &rec)
	})
	if err != nil {
		return nil, fmt.Errorf("dispatch: replaying submit log: %w", err)
	}
	resScan, err := journal.ForEach(resDir, func(i int64, payload []byte) error {
		return q.replayResult(i, payload, &rec)
	})
	if err != nil {
		return nil, fmt.Errorf("dispatch: replaying completion log: %w", err)
	}
	if ck != nil {
		if subScan.Records < ck.SubmitRecs {
			return nil, fmt.Errorf("dispatch: submit log has %d valid records but checkpoint pins %d — log damaged beyond the crash tail",
				subScan.Records, ck.SubmitRecs)
		}
		if resScan.Records < ck.ResultRecs {
			return nil, fmt.Errorf("dispatch: completion log has %d valid records but checkpoint pins %d — log damaged beyond the crash tail",
				resScan.Records, ck.ResultRecs)
		}
	}
	opts := journal.Options{SyncEvery: cfg.SyncEvery}
	if q.submits, err = journal.OpenAt(subDir, subScan, subScan.Records, opts); err != nil {
		return nil, fmt.Errorf("dispatch: opening submit log: %w", err)
	}
	if q.results, err = journal.OpenAt(resDir, resScan, resScan.Records, opts); err != nil {
		q.submits.Abandon()
		return nil, fmt.Errorf("dispatch: opening completion log: %w", err)
	}
	q.recovered = subScan.Records > 0 || resScan.Records > 0
	return q, nil
}

// addTaskLocked appends a freshly submitted (or replayed) task, carved
// from the current chunk.
func (q *Queue) addTaskLocked(seq int64, key string, spec *wire.Spec) {
	if len(q.spare) == 0 {
		q.spare = make([]Task, taskChunk)
	}
	t := &q.spare[0]
	q.spare = q.spare[1:]
	t.Seq, t.Key, t.Spec = seq, key, *spec
	q.tasks = append(q.tasks, t)
	q.tally[TaskQueued]++
	if key != "" && q.byKey != nil {
		q.byKey[key] = seq
	}
}

// keyIndexLocked returns the idempotency index, building it from the
// task table on first use. A key a log holds twice names its later
// task.
func (q *Queue) keyIndexLocked() map[string]int64 {
	if q.byKey == nil {
		q.byKey = make(map[string]int64, len(q.tasks))
		for _, t := range q.tasks {
			if t.Key != "" {
				q.byKey[t.Key] = t.Seq
			}
		}
	}
	return q.byKey
}

// setStateLocked is the only place a task changes state, so tally
// cannot drift from the tasks.
func (q *Queue) setStateLocked(t *Task, s TaskState) {
	q.tally[t.State]--
	q.tally[s]++
	t.State = s
}

// replaySubmit applies submit-log record i during recovery.
func (q *Queue) replaySubmit(i int64, payload []byte, rec *wire.WALRecord) error {
	if err := wire.DecodeWALRecord(payload, rec); err != nil {
		return fmt.Errorf("submit record %d: %w", i, err)
	}
	switch rec.Type {
	case wire.WALSubmit:
		if rec.Seq != int64(len(q.tasks)) {
			return fmt.Errorf("submit record %d: seq %d out of order (want %d)", i, rec.Seq, len(q.tasks))
		}
		q.addTaskLocked(rec.Seq, rec.Key, &rec.Spec)
	case wire.WALSeal:
		q.sealed = true
	default:
		return fmt.Errorf("submit record %d: unexpected type %s", i, rec.Type)
	}
	return nil
}

// replayResult applies completion-log record i during recovery.
func (q *Queue) replayResult(i int64, payload []byte, rec *wire.WALRecord) error {
	if err := wire.DecodeWALRecord(payload, rec); err != nil {
		return fmt.Errorf("completion record %d: %w", i, err)
	}
	if rec.Type != wire.WALExpire && rec.Type != wire.WALResult && rec.Type != wire.WALCancel {
		return fmt.Errorf("completion record %d: unexpected type %s", i, rec.Type)
	}
	if rec.Seq < 0 || rec.Seq >= int64(len(q.tasks)) {
		return fmt.Errorf("completion record %d: unknown seq %d", i, rec.Seq)
	}
	t := q.tasks[rec.Seq]
	switch rec.Type {
	case wire.WALExpire:
		t.Attempt = max(t.Attempt, rec.Attempt)
	case wire.WALResult:
		if t.State.terminal() {
			break // first outcome wins, exactly like the live path
		}
		t.Worker = rec.Worker
		t.Attempt = max(t.Attempt, rec.Attempt)
		if rec.Err != "" {
			t.Err = rec.Err
			q.setStateLocked(t, TaskFailed)
		} else {
			// DecodeWALRecord refused unsorted or repeated bits; it
			// reuses its array for the next record.
			t.Counts = slices.Clone(rec.Counts)
			q.setStateLocked(t, TaskDone)
		}
	case wire.WALCancel:
		if !t.State.terminal() {
			q.setStateLocked(t, TaskCancelled)
		}
	}
	return nil
}

// Recovered reports whether OpenQueue replayed pre-existing state.
func (q *Queue) Recovered() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.recovered
}

// emit delivers one live event (caller holds q.mu).
func (q *Queue) emit(ev wire.Event) {
	if q.cfg.OnEvent != nil {
		ev.At = q.cfg.Now()
		q.cfg.OnEvent(ev)
	}
}

// appendLocked journals one record to w. It does not flush: the call
// that appended flushes once, through flushLocked, before it returns.
// A failure here is sticky: the queue stops accepting mutations rather
// than diverging from its log.
func (q *Queue) appendLocked(w *journal.Writer, rec *wire.WALRecord) error {
	if q.err != nil {
		return q.err
	}
	q.recBuf = wire.AppendWALRecord(q.recBuf[:0], rec)
	return q.failLocked(w.Append(q.recBuf))
}

// flushLocked hands everything appended so far to the OS — the ack
// barrier. A flush that fails leaves the in-memory state ahead of the
// log by the records it could not write; none of them was acked, the
// queue is read-only from here, and a restart replays the log.
func (q *Queue) flushLocked() error {
	if q.err != nil {
		return q.err
	}
	err := q.submits.Flush()
	if err == nil {
		err = q.results.Flush()
	}
	return q.failLocked(err)
}

// failLocked makes a journal error sticky.
func (q *Queue) failLocked(err error) error {
	if err != nil {
		q.err = fmt.Errorf("dispatch: journal write failed, queue is read-only: %w", err)
	}
	return q.err
}

// commitLocked appends one record and flushes: the single-record calls.
func (q *Queue) commitLocked(w *journal.Writer, rec *wire.WALRecord) error {
	if err := q.appendLocked(w, rec); err != nil {
		return err
	}
	return q.flushLocked()
}

// Submit accepts one spec under an idempotency key. A repeated key
// returns the original seq with dup=true and journals nothing.
func (q *Queue) Submit(key string, spec wire.Spec) (seq int64, dup bool, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return 0, false, q.err
	}
	if key != "" {
		if s, ok := q.keyIndexLocked()[key]; ok {
			return s, true, nil
		}
	}
	if q.sealed {
		return 0, false, ErrSealed
	}
	seq = int64(len(q.tasks))
	if err := q.commitLocked(q.submits, &wire.WALRecord{Type: wire.WALSubmit, Seq: seq, Key: key, Spec: spec}); err != nil {
		return 0, false, err
	}
	q.addTaskLocked(seq, key, &spec)
	q.emit(wire.Event{Kind: cloud.EventEnqueue, Seq: seq})
	return seq, false, nil
}

// Seal closes the submission stream (idempotent).
func (q *Queue) Seal() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return q.err
	}
	if q.sealed {
		return nil
	}
	if err := q.commitLocked(q.submits, &wire.WALRecord{Type: wire.WALSeal}); err != nil {
		return err
	}
	q.sealed = true
	return nil
}

// Sealed reports whether the submission stream is closed.
func (q *Queue) Sealed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.sealed
}

// sweepLocked advances lease and backoff state to now: expired leases
// consume an attempt and either requeue through the retry policy or
// fail terminally; requeued tasks whose backoff gate has opened fire
// their requeue event and become pullable. It pops only the timers
// that are due and handles their tasks in ascending seq, so the WAL
// records and events come out in the order a walk over every task
// would produce them, and flushes what it journaled.
func (q *Queue) sweepLocked(now time.Time) {
	if q.err != nil || len(q.timers) == 0 || q.timers[0].at.After(now) {
		return
	}
	due := q.due[:0]
	for len(q.timers) > 0 && !q.timers[0].at.After(now) {
		due = append(due, q.timers.pop().seq)
	}
	q.due = due
	slices.Sort(due)
	for _, seq := range due {
		t := q.tasks[seq]
		switch {
		case t.State == TaskQueued && t.requeuePending && !t.notBefore.After(now):
			t.requeuePending = false
			q.ready = min(q.ready, seq)
			q.emit(wire.Event{Kind: cloud.EventRequeue, Seq: seq, Attempt: t.Attempt})
		case t.State == TaskLeased && t.deadline.After(now):
			// Heartbeats moved the deadline since this timer was set.
			q.timers.push(timer{t.deadline, seq})
		case t.State == TaskLeased:
			if !q.expireLocked(t, now) {
				return
			}
		}
		// Anything else finished or was cancelled since its timer was
		// set: a stale hint.
	}
	_ = q.flushLocked() // a failure is sticky in q.err
}

// expireLocked ends t's lease at now, reporting false when the journal
// failed.
func (q *Queue) expireLocked(t *Task, now time.Time) bool {
	t.Attempt++
	worker := t.Worker
	t.Worker = ""
	if q.appendLocked(q.results, &wire.WALRecord{Type: wire.WALExpire, Seq: t.Seq, Attempt: t.Attempt}) != nil {
		return false
	}
	if t.Attempt >= q.cfg.Retry.MaxAttempts {
		errMsg := fmt.Sprintf("lease expired on attempt %d/%d (last worker %s)",
			t.Attempt, q.cfg.Retry.MaxAttempts, worker)
		if q.appendLocked(q.results, &wire.WALRecord{Type: wire.WALResult, Seq: t.Seq, Attempt: t.Attempt, Err: errMsg}) != nil {
			return false
		}
		t.Err = errMsg
		q.setStateLocked(t, TaskFailed)
		q.noteCompletionLocked()
		q.emit(wire.Event{Kind: cloud.EventError, Seq: t.Seq, Attempt: t.Attempt, Worker: worker, Err: errMsg})
		return true
	}
	delay := q.cfg.Retry.Backoff(t.Attempt, q.cfg.Seed, 0, t.Seq)
	q.setStateLocked(t, TaskQueued)
	t.notBefore = now.Add(time.Duration(delay * float64(time.Second)))
	t.requeuePending = true
	q.timers.push(timer{t.notBefore, t.Seq})
	q.emit(wire.Event{Kind: cloud.EventRetry, Seq: t.Seq, Attempt: t.Attempt, Worker: worker, NextAttemptAt: t.notBefore})
	return true
}

// Report is one unit's outcome as a worker reports it. Err non-empty
// means the payload itself failed deterministically. Counts may come in
// any order: the queue canonicalizes them (wire.Canonical) and keeps
// the resulting slice, so the caller must not modify it afterwards.
type Report struct {
	Seq     int64
	Attempt int
	Counts  []wire.Count
	Err     string
}

// Outcome answers one Report. Accepted=false means the task was already
// terminal (duplicate or post-cancel report) and the first outcome was
// kept, or — State TaskUnknown — that the queue has no such seq.
type Outcome struct {
	Accepted bool
	State    TaskState
}

// Exchanged is what one Exchange produced: an Outcome per report, in
// order, and the units leased.
type Exchanged struct {
	Outcomes []Outcome
	Units    []wire.Unit
	Sealed   bool
}

// Exchange is a worker's whole turn under one lock acquisition and one
// flush: record the outcomes it reports, make them durable, and only
// then lease it up to pull eligible units, lowest seq first (none when
// pull is 0). A report naming an unknown seq is answered TaskUnknown
// and does not disturb the others. Pull and Result are its one-sided
// forms.
func (q *Queue) Exchange(worker string, reports []Report, pull int) (Exchanged, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return Exchanged{}, q.err
	}
	now := q.cfg.Now()
	q.sweepLocked(now)
	ex := Exchanged{Sealed: q.sealed}
	if len(reports) > 0 {
		ex.Outcomes = make([]Outcome, len(reports))
		for i := range reports {
			ex.Outcomes[i] = q.resultLocked(worker, &reports[i])
		}
	}
	if err := q.flushLocked(); err != nil {
		return Exchanged{}, err
	}
	if pull > 0 {
		ex.Units = q.leaseLocked(worker, pull, now)
	}
	return ex, nil
}

// resultLocked records one reported outcome; first outcome wins. A late
// result from an expired lease is accepted: the work is deterministic,
// so the outcome is the one any other attempt would produce. A journal
// failure leaves q.err set for the caller's flush to report.
func (q *Queue) resultLocked(worker string, r *Report) Outcome {
	if r.Seq < 0 || r.Seq >= int64(len(q.tasks)) {
		return Outcome{State: TaskUnknown}
	}
	t := q.tasks[r.Seq]
	if t.State.terminal() {
		return Outcome{State: t.State}
	}
	rec := wire.WALRecord{Type: wire.WALResult, Seq: r.Seq, Attempt: r.Attempt, Worker: worker, Err: r.Err}
	if r.Err == "" {
		// The one form from here on: the WAL record, the task and the
		// CSV cell all hold this slice.
		rec.Counts = wire.Canonical(r.Counts)
	}
	if q.appendLocked(q.results, &rec) != nil {
		return Outcome{State: t.State}
	}
	t.Worker = worker
	if r.Attempt > t.Attempt {
		t.Attempt = r.Attempt
	}
	if r.Err != "" {
		t.Err = r.Err
		q.setStateLocked(t, TaskFailed)
		q.emit(wire.Event{Kind: cloud.EventError, Seq: r.Seq, Attempt: r.Attempt, Worker: worker, Err: r.Err})
	} else {
		t.Counts = rec.Counts
		q.setStateLocked(t, TaskDone)
		q.emit(wire.Event{Kind: cloud.EventDone, Seq: r.Seq, Attempt: r.Attempt, Worker: worker})
	}
	q.noteCompletionLocked()
	return Outcome{Accepted: true, State: t.State}
}

// leaseLocked leases up to n pullable units to the worker, lowest seq
// first, starting at the ready cursor and leaving it where it stopped.
func (q *Queue) leaseLocked(worker string, n int, now time.Time) []wire.Unit {
	var units []wire.Unit
	seq := q.ready
	for ; seq < int64(len(q.tasks)) && len(units) < n; seq++ {
		t := q.tasks[seq]
		if t.State != TaskQueued || t.requeuePending {
			continue
		}
		q.setStateLocked(t, TaskLeased)
		t.Worker = worker
		t.deadline = now.Add(q.cfg.Lease)
		q.timers.push(timer{t.deadline, seq})
		units = append(units, wire.Unit{
			Seq:      seq,
			Attempt:  t.Attempt,
			Spec:     t.Spec,
			LeaseSec: q.cfg.Lease.Seconds(),
		})
		q.emit(wire.Event{Kind: cloud.EventStart, Seq: seq, Attempt: t.Attempt, Worker: worker})
	}
	q.ready = seq
	return units
}

// Pull leases up to max eligible units to the worker, lowest seq
// first.
func (q *Queue) Pull(worker string, max int) ([]wire.Unit, error) {
	if max <= 0 {
		max = 1
	}
	ex, err := q.Exchange(worker, nil, max)
	return ex.Units, err
}

// Heartbeat extends the worker's live leases, returning how many were
// still held.
func (q *Queue) Heartbeat(worker string, seqs []int64) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.cfg.Now()
	q.sweepLocked(now)
	extended := 0
	for _, seq := range seqs {
		if seq < 0 || seq >= int64(len(q.tasks)) {
			continue
		}
		t := q.tasks[seq]
		if t.State == TaskLeased && t.Worker == worker {
			// The lease's timer stays where it is; the sweep re-arms it
			// at the new deadline when it surfaces.
			t.deadline = now.Add(q.cfg.Lease)
			extended++
		}
	}
	return extended
}

// Result records one unit's outcome: Exchange with one report and no
// pull. An unknown seq is an error here.
func (q *Queue) Result(worker string, seq int64, attempt int, counts map[string]int, errMsg string) (accepted bool, state TaskState, err error) {
	r := Report{Seq: seq, Attempt: attempt, Err: errMsg}
	if errMsg == "" {
		r.Counts = wire.CountsToPairs(counts)
	}
	return q.report(worker, r)
}

// report is Result for counts that are already pairs.
func (q *Queue) report(worker string, r Report) (accepted bool, state TaskState, err error) {
	ex, err := q.Exchange(worker, []Report{r}, 0)
	if err != nil {
		return false, 0, err
	}
	o := ex.Outcomes[0]
	if o.State == TaskUnknown {
		return false, 0, fmt.Errorf("dispatch: result for unknown seq %d", r.Seq)
	}
	return o.Accepted, o.State, nil
}

// ErrUnknownTask is the error, under errors.Is, of a Cancel naming a key
// or seq the queue never accepted: the caller's mistake, where every
// other Cancel error is the queue's own failure.
var ErrUnknownTask = errors.New("no such task")

// Cancel cancels by key (preferred) or seq. accepted=false means the
// task was already terminal.
func (q *Queue) Cancel(key string, seq int64) (accepted bool, state TaskState, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil {
		return false, 0, q.err
	}
	q.sweepLocked(q.cfg.Now())
	if key != "" {
		s, ok := q.keyIndexLocked()[key]
		if !ok {
			return false, 0, fmt.Errorf("dispatch: cancel of unknown key %q: %w", key, ErrUnknownTask)
		}
		seq = s
	}
	if seq < 0 || seq >= int64(len(q.tasks)) {
		return false, 0, fmt.Errorf("dispatch: cancel of unknown seq %d: %w", seq, ErrUnknownTask)
	}
	t := q.tasks[seq]
	if t.State.terminal() {
		return false, t.State, nil
	}
	if err := q.commitLocked(q.results, &wire.WALRecord{Type: wire.WALCancel, Seq: seq}); err != nil {
		return false, 0, err
	}
	q.setStateLocked(t, TaskCancelled)
	q.noteCompletionLocked()
	q.emit(wire.Event{Kind: cloud.EventCancel, Seq: seq, Attempt: t.Attempt})
	return true, TaskCancelled, nil
}

// Stats is a point-in-time tally of queue states.
type Stats struct {
	Sealed    bool
	Jobs      int
	Queued    int
	Leased    int
	Done      int
	Failed    int
	Cancelled int
}

// Terminal reports the number of finished tasks.
func (s Stats) Terminal() int { return s.Done + s.Failed + s.Cancelled }

// Stats sweeps and reads the tally.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepLocked(q.cfg.Now())
	return Stats{
		Sealed:    q.sealed,
		Jobs:      len(q.tasks),
		Queued:    q.tally[TaskQueued],
		Leased:    q.tally[TaskLeased],
		Done:      q.tally[TaskDone],
		Failed:    q.tally[TaskFailed],
		Cancelled: q.tally[TaskCancelled],
	}
}

// CountsCSV writes the counts-plane CSV of every terminal task straight
// from the task table: the tasks are in seq order and their counts in
// cell order already, so nothing is copied or sorted. The bytes are
// those of wire.RunLocal's ResultSet.WriteCSV for the same outcomes —
// both write their rows with cloud.AppendCountsRow.
func (q *Queue) CountsCSV() []byte {
	q.mu.Lock()
	defer q.mu.Unlock()
	buf := []byte(cloud.CountsHeader)
	for _, t := range q.tasks {
		var errMsg string
		var counts []wire.Count
		switch t.State {
		case TaskDone:
			counts = t.Counts
		case TaskFailed:
			errMsg = t.Err
		case TaskCancelled:
		default:
			continue
		}
		buf = cloud.AppendCountsRow(buf, t.Seq, t.Spec.ExecLabel(), t.Spec.ExecBatch, t.Spec.ExecShots, t.State == TaskCancelled, errMsg, counts)
	}
	return buf
}

// TraceInputs returns every submission's spec in seq order — the trace
// plane's replay input.
func (q *Queue) TraceInputs() []wire.Spec {
	q.mu.Lock()
	defer q.mu.Unlock()
	specs := make([]wire.Spec, len(q.tasks))
	for i, t := range q.tasks {
		specs[i] = t.Spec
	}
	return specs
}

// cancelledSeqs reports whether the stream is sealed, how many tasks it
// holds, and which of them are cancelled, ascending: the part of the
// trace plane's input a late cancel still moves.
func (q *Queue) cancelledSeqs() (sealed bool, jobs int64, cancelled []int64) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.tally[TaskCancelled] > 0 {
		cancelled = make([]int64, 0, q.tally[TaskCancelled])
		for _, t := range q.tasks {
			if t.State == TaskCancelled {
				cancelled = append(cancelled, t.Seq)
			}
		}
	}
	return q.sealed, int64(len(q.tasks)), cancelled
}

// noteCompletionLocked counts completion-log activity toward the
// checkpoint cadence.
func (q *Queue) noteCompletionLocked() {
	q.sinceCkpt++
	if q.sinceCkpt >= q.cfg.CheckpointEvery {
		q.writeCheckpointLocked()
	}
}

// writeCheckpointLocked persists the watermark (best-effort: a failed
// checkpoint only weakens future damage detection, never correctness).
// It flushes first: Records counts buffered frames, and a checkpoint
// taken in the middle of a batch must not pin a record the OS does not
// hold yet — a crash right after it would leave a log shorter than its
// watermark, which OpenQueue refuses.
func (q *Queue) writeCheckpointLocked() {
	q.sinceCkpt = 0
	if q.flushLocked() != nil {
		return
	}
	ck := checkpoint{SubmitRecs: q.submits.Records(), ResultRecs: q.results.Records()}
	_ = writeCheckpointFile(filepath.Join(q.cfg.Dir, ckptName), ck)
}

// Close checkpoints and seals both WAL streams. The queue refuses
// further mutations once closed.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.submits == nil {
		return nil
	}
	q.writeCheckpointLocked()
	err1 := q.submits.Close()
	err2 := q.results.Close()
	q.submits, q.results = nil, nil
	if q.err == nil {
		q.err = errors.New("dispatch: queue closed")
	}
	if err1 != nil {
		return err1
	}
	return err2
}

// --- checkpoint file framing ---------------------------------------------

// writeCheckpointFile writes the watermark as its magic and one journal
// frame. The frame's payload is a record like the WAL's: the layout
// version byte, then the two watermarks as varints.
func writeCheckpointFile(path string, ck checkpoint) error {
	payload := binary.AppendVarint(binary.AppendVarint([]byte{wire.WALVersion}, ck.SubmitRecs), ck.ResultRecs)
	return replaceFile(path, journal.AppendFrame([]byte(ckptMagic), payload))
}

// replaceFile writes data to a temp file renamed over path, so a crash
// never leaves a half-written file at path. It does not fsync: the
// watermark and the trace file are each one checked frame, and a file
// that a power loss tore or lost reads as no file at all.
func replaceFile(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readCheckpoint loads the watermark file. A missing file is nil (no
// watermark to enforce); a torn or corrupt file is likewise nil — the
// checkpoint is an extra guard, and a file that died mid-rename must
// not block an otherwise clean recovery.
func readCheckpoint(path string) (*checkpoint, error) {
	buf, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	framed, ok := bytes.CutPrefix(buf, []byte(ckptMagic))
	payload, err := journal.Frame(framed)
	if !ok || err != nil {
		return nil, nil
	}
	d := journal.NewRecordReader(payload)
	d.Version(wire.WALVersion)
	ck := checkpoint{SubmitRecs: d.Varint(), ResultRecs: d.Varint()}
	if d.Finish() != nil {
		return nil, nil
	}
	return &ck, nil
}
