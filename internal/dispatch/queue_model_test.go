package dispatch

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"qcloud/internal/cloud"
	"qcloud/internal/dispatch/wire"
	"qcloud/internal/journal"
)

// refQueue is the queue as it was before the indices: every call
// sweeps by walking every task, Pull scans from seq 0, and every record
// is flushed as it is appended. The bodies of sweepLocked, Pull,
// Heartbeat, Result, Cancel and Stats are that version's, verbatim but
// for the receiver, the mutex and the checkpoint cadence (the
// checkpoint file is not part of either stream). It is the oracle the
// model test holds Queue to.
type refQueue struct {
	cfg     QueueConfig
	err     error
	tasks   []*Task
	byKey   map[string]int64
	sealed  bool
	submits *journal.Writer
	results *journal.Writer
}

func openRef(t *testing.T, cfg QueueConfig, from *refQueue) *refQueue {
	t.Helper()
	cfg = cfg.withDefaults()
	q := &refQueue{cfg: cfg, byKey: make(map[string]int64)}
	var subRecs, resRecs int64
	if from != nil {
		// A restart keeps what the logs hold — every task and terminal
		// outcome — and forgets leases and backoff gates.
		q.tasks, q.byKey, q.sealed = from.tasks, from.byKey, from.sealed
		subRecs, resRecs = from.submits.Records(), from.results.Records()
		for _, t := range q.tasks {
			if !t.State.terminal() {
				t.State = TaskQueued
				t.Worker = ""
				t.notBefore = time.Time{}
				t.requeuePending = false
			}
		}
	}
	q.submits = openStreamAt(t, filepath.Join(cfg.Dir, submitsDirName), subRecs)
	q.results = openStreamAt(t, filepath.Join(cfg.Dir, resultsDirName), resRecs)
	return q
}

// openStreamAt resumes the WAL stream in dir at record at, after
// scanning it.
func openStreamAt(t *testing.T, dir string, at int64) *journal.Writer {
	t.Helper()
	scan, err := journal.Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := journal.OpenAt(dir, scan, at, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func (q *refQueue) close(t *testing.T) {
	t.Helper()
	if err := q.submits.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.results.Close(); err != nil {
		t.Fatal(err)
	}
}

func (q *refQueue) emit(ev wire.Event) {
	if q.cfg.OnEvent != nil {
		ev.At = q.cfg.Now()
		q.cfg.OnEvent(ev)
	}
}

func (q *refQueue) appendLocked(w *journal.Writer, rec wire.WALRecord) error {
	if q.err != nil {
		return q.err
	}
	err := w.Append(wire.AppendWALRecord(nil, &rec))
	if err == nil {
		err = w.Flush()
	}
	if err != nil {
		q.err = fmt.Errorf("dispatch: journal append failed, queue is read-only: %w", err)
		return q.err
	}
	return nil
}

func (q *refQueue) Submit(key string, spec wire.Spec) (seq int64, dup bool, err error) {
	if q.err != nil {
		return 0, false, q.err
	}
	if key != "" {
		if s, ok := q.byKey[key]; ok {
			return s, true, nil
		}
	}
	if q.sealed {
		return 0, false, ErrSealed
	}
	seq = int64(len(q.tasks))
	if err := q.appendLocked(q.submits, wire.WALRecord{Type: wire.WALSubmit, Seq: seq, Key: key, Spec: spec}); err != nil {
		return 0, false, err
	}
	q.tasks = append(q.tasks, &Task{Seq: seq, Key: key, Spec: spec})
	if key != "" {
		q.byKey[key] = seq
	}
	q.emit(wire.Event{Kind: cloud.EventEnqueue, Seq: seq})
	return seq, false, nil
}

func (q *refQueue) Seal() error {
	if q.err != nil {
		return q.err
	}
	if q.sealed {
		return nil
	}
	if err := q.appendLocked(q.submits, wire.WALRecord{Type: wire.WALSeal}); err != nil {
		return err
	}
	q.sealed = true
	return nil
}

func (q *refQueue) sweepLocked(now time.Time) {
	for _, t := range q.tasks {
		switch t.State {
		case TaskLeased:
			if t.deadline.After(now) {
				continue
			}
			t.Attempt++
			worker := t.Worker
			t.Worker = ""
			if q.appendLocked(q.results, wire.WALRecord{Type: wire.WALExpire, Seq: t.Seq, Attempt: t.Attempt}) != nil {
				return
			}
			if t.Attempt >= q.cfg.Retry.MaxAttempts {
				errMsg := fmt.Sprintf("lease expired on attempt %d/%d (last worker %s)",
					t.Attempt, q.cfg.Retry.MaxAttempts, worker)
				if q.appendLocked(q.results, wire.WALRecord{Type: wire.WALResult, Seq: t.Seq, Attempt: t.Attempt, Err: errMsg}) != nil {
					return
				}
				t.State, t.Err = TaskFailed, errMsg
				q.emit(wire.Event{Kind: cloud.EventError, Seq: t.Seq, Attempt: t.Attempt, Worker: worker, Err: errMsg})
				continue
			}
			delay := q.cfg.Retry.Backoff(t.Attempt, q.cfg.Seed, 0, t.Seq)
			t.State = TaskQueued
			t.notBefore = now.Add(time.Duration(delay * float64(time.Second)))
			t.requeuePending = true
			q.emit(wire.Event{Kind: cloud.EventRetry, Seq: t.Seq, Attempt: t.Attempt, Worker: worker, NextAttemptAt: t.notBefore})
		case TaskQueued:
			if t.requeuePending && !t.notBefore.After(now) {
				t.requeuePending = false
				q.emit(wire.Event{Kind: cloud.EventRequeue, Seq: t.Seq, Attempt: t.Attempt})
			}
		}
	}
}

func (q *refQueue) Pull(worker string, max int) ([]wire.Unit, error) {
	if q.err != nil {
		return nil, q.err
	}
	now := q.cfg.Now()
	q.sweepLocked(now)
	if max <= 0 {
		max = 1
	}
	var units []wire.Unit
	for _, t := range q.tasks {
		if len(units) >= max {
			break
		}
		if t.State != TaskQueued || t.notBefore.After(now) {
			continue
		}
		t.State = TaskLeased
		t.Worker = worker
		t.deadline = now.Add(q.cfg.Lease)
		t.requeuePending = false
		units = append(units, wire.Unit{
			Seq:      t.Seq,
			Attempt:  t.Attempt,
			Spec:     t.Spec,
			LeaseSec: q.cfg.Lease.Seconds(),
		})
		q.emit(wire.Event{Kind: cloud.EventStart, Seq: t.Seq, Attempt: t.Attempt, Worker: worker})
	}
	return units, nil
}

func (q *refQueue) Heartbeat(worker string, seqs []int64) int {
	now := q.cfg.Now()
	q.sweepLocked(now)
	extended := 0
	for _, seq := range seqs {
		if seq < 0 || seq >= int64(len(q.tasks)) {
			continue
		}
		t := q.tasks[seq]
		if t.State == TaskLeased && t.Worker == worker {
			t.deadline = now.Add(q.cfg.Lease)
			extended++
		}
	}
	return extended
}

func (q *refQueue) Result(worker string, seq int64, attempt int, counts map[string]int, errMsg string) (accepted bool, state TaskState, err error) {
	if q.err != nil {
		return false, 0, q.err
	}
	q.sweepLocked(q.cfg.Now())
	if seq < 0 || seq >= int64(len(q.tasks)) {
		return false, 0, fmt.Errorf("dispatch: result for unknown seq %d", seq)
	}
	t := q.tasks[seq]
	if t.State.terminal() {
		return false, t.State, nil
	}
	rr := wire.WALRecord{Type: wire.WALResult, Seq: seq, Attempt: attempt, Worker: worker, Err: errMsg}
	if errMsg == "" {
		rr.Counts = wire.CountsToPairs(counts)
	}
	if err := q.appendLocked(q.results, rr); err != nil {
		return false, 0, err
	}
	t.Worker = worker
	if attempt > t.Attempt {
		t.Attempt = attempt
	}
	if errMsg != "" {
		t.State, t.Err = TaskFailed, errMsg
		q.emit(wire.Event{Kind: cloud.EventError, Seq: seq, Attempt: attempt, Worker: worker, Err: errMsg})
	} else {
		t.State, t.Counts = TaskDone, rr.Counts
		q.emit(wire.Event{Kind: cloud.EventDone, Seq: seq, Attempt: attempt, Worker: worker})
	}
	return true, t.State, nil
}

func (q *refQueue) Cancel(key string, seq int64) (accepted bool, state TaskState, err error) {
	if q.err != nil {
		return false, 0, q.err
	}
	q.sweepLocked(q.cfg.Now())
	if key != "" {
		s, ok := q.byKey[key]
		if !ok {
			return false, 0, fmt.Errorf("dispatch: cancel of unknown key %q", key)
		}
		seq = s
	}
	if seq < 0 || seq >= int64(len(q.tasks)) {
		return false, 0, fmt.Errorf("dispatch: cancel of unknown seq %d", seq)
	}
	t := q.tasks[seq]
	if t.State.terminal() {
		return false, t.State, nil
	}
	if err := q.appendLocked(q.results, wire.WALRecord{Type: wire.WALCancel, Seq: seq}); err != nil {
		return false, 0, err
	}
	t.State = TaskCancelled
	q.emit(wire.Event{Kind: cloud.EventCancel, Seq: seq, Attempt: t.Attempt})
	return true, TaskCancelled, nil
}

func (q *refQueue) Stats() Stats {
	q.sweepLocked(q.cfg.Now())
	st := Stats{Sealed: q.sealed, Jobs: len(q.tasks)}
	for _, t := range q.tasks {
		switch t.State {
		case TaskQueued:
			st.Queued++
		case TaskLeased:
			st.Leased++
		case TaskDone:
			st.Done++
		case TaskFailed:
			st.Failed++
		case TaskCancelled:
			st.Cancelled++
		}
	}
	return st
}

// streamBytes is a WAL stream as the OS holds it: its segments in
// order, concatenated.
func streamBytes(t *testing.T, dir, stream string) []byte {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, stream, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var all []byte
	for _, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, b...)
	}
	return all
}

// ledger folds an event stream into per-task states, so that what the
// events say happened can be held against what Stats says is.
type ledger struct {
	state   []TaskState
	started []bool
	// Event tallies. ended counts the done/error/cancel/retry events
	// that hit a task while it was leased — the ways a lease ends with
	// an event; forgotten counts the leases a restart dropped silently.
	enqueue, start, ended, forgotten int
}

func (l *ledger) apply(t *testing.T, ev wire.Event) {
	t.Helper()
	if ev.Kind == cloud.EventEnqueue {
		if ev.Seq != int64(len(l.state)) {
			t.Fatalf("enqueue of seq %d, want %d", ev.Seq, len(l.state))
		}
		l.state, l.started = append(l.state, TaskQueued), append(l.started, false)
		l.enqueue++
		return
	}
	was := l.state[ev.Seq]
	if was.terminal() {
		t.Fatalf("event %s for seq %d, which is already %s", ev.Kind, ev.Seq, was)
	}
	next := was
	switch ev.Kind {
	case cloud.EventStart:
		if was != TaskQueued {
			t.Fatalf("start of seq %d while %s", ev.Seq, was)
		}
		next, l.started[ev.Seq] = TaskLeased, true
		l.start++
	case cloud.EventRetry:
		if was != TaskLeased {
			t.Fatalf("retry of seq %d while %s", ev.Seq, was)
		}
		next = TaskQueued
	case cloud.EventRequeue:
		if was != TaskQueued {
			t.Fatalf("requeue of seq %d while %s", ev.Seq, was)
		}
	case cloud.EventDone:
		next = TaskDone
	case cloud.EventError:
		next = TaskFailed
	case cloud.EventCancel:
		next = TaskCancelled
	default:
		t.Fatalf("unexpected event kind %s", ev.Kind)
	}
	if was == TaskLeased && next != TaskLeased {
		l.ended++
	}
	l.state[ev.Seq] = next
}

// restart is what a reopen does to the fold: leases vanish, no event.
func (l *ledger) restart() {
	for i, s := range l.state {
		if s == TaskLeased {
			l.state[i] = TaskQueued
			l.forgotten++
		}
	}
}

// check holds the fold against Stats and asserts the conservation laws.
func (l *ledger) check(t *testing.T, st Stats) {
	t.Helper()
	var tally [numTaskStates]int
	started, waiting, endedUnstarted := 0, 0, 0
	for i, s := range l.state {
		tally[s]++
		switch {
		case l.started[i]:
			started++
		case s == TaskQueued:
			waiting++
		default:
			endedUnstarted++ // cancelled, or reported, before any lease
		}
	}
	folded := Stats{Sealed: st.Sealed, Jobs: len(l.state), Queued: tally[TaskQueued], Leased: tally[TaskLeased],
		Done: tally[TaskDone], Failed: tally[TaskFailed], Cancelled: tally[TaskCancelled]}
	if folded != st {
		t.Fatalf("events fold to %+v, Stats says %+v", folded, st)
	}
	if l.enqueue != started+waiting+endedUnstarted {
		t.Fatalf("enqueue %d != started %d + still queued %d + ended before start %d", l.enqueue, started, waiting, endedUnstarted)
	}
	if l.start != l.ended+st.Leased+l.forgotten {
		t.Fatalf("start %d != leases ended %d + still leased %d + forgotten by restarts %d", l.start, l.ended, st.Leased, l.forgotten)
	}
}

// TestQueueModel drives Queue and the whole-walk oracle through the
// same seeded random operation sequences under one injected clock and
// requires, after every step, the same answers, the same Stats, the
// same events, the same bytes in both WAL streams, and an event stream
// that accounts for every task and every lease.
func TestQueueModel(t *testing.T) {
	plans := testPlans(t, 3, 12)
	steps := 400
	if testing.Short() {
		steps = 120
	}
	// What the sequences must have reached, over all seeds, for the
	// comparison to mean anything.
	var seen struct{ retry, requeue, exhausted, lateResult, expiredAfterRearm, reopen int }
	defer func() {
		t.Logf("paths reached: %+v", seen)
		if !t.Failed() && (seen.retry == 0 || seen.requeue == 0 || seen.exhausted == 0 || seen.lateResult == 0 || seen.expiredAfterRearm == 0 || seen.reopen == 0) {
			t.Errorf("the sequences never reached some path: %+v", seen)
		}
	}()
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clk := &fakeClock{now: time.Unix(1_700_000_000, 0)}
			var got, want []wire.Event
			cfg := QueueConfig{
				Seed:  11,
				Lease: time.Second,
				Retry: &cloud.RetryPolicy{MaxAttempts: 2, BaseBackoff: 100 * time.Millisecond, MaxBackoff: 600 * time.Millisecond},
				// Smaller than a result batch, so checkpoints land inside one.
				CheckpointEvery: 2,
				Now:             clk.Now,
			}
			qcfg, rcfg := cfg, cfg
			qcfg.Dir, qcfg.OnEvent = t.TempDir(), func(ev wire.Event) { got = append(got, ev) }
			rcfg.Dir, rcfg.OnEvent = t.TempDir(), func(ev wire.Event) { want = append(want, ev) }
			q, err := OpenQueue(qcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { q.Close() }()
			ref := openRef(t, rcfg, nil)

			var led ledger
			folded := 0
			// Leases a heartbeat has extended, with the deadline they had at
			// first; rearmed marks those a sweep has seen between that
			// deadline and the extended one.
			extended, rearmed := map[int64]time.Time{}, map[int64]bool{}
			workers := []string{"w0", "w1", "w2"}
			anySeq := func() int64 { return int64(rng.Intn(len(ref.tasks)+2)) - 1 } // -1 and len are unknown
			leasedSeq := func() int64 {
				var held []int64
				for _, task := range ref.tasks {
					if task.State == TaskLeased {
						held = append(held, task.Seq)
					}
				}
				if len(held) == 0 || rng.Intn(5) == 0 {
					return anySeq()
				}
				return held[rng.Intn(len(held))]
			}
			sameUnits := func(op string, a, b []wire.Unit) {
				t.Helper()
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("%s leased %+v, oracle %+v", op, a, b)
				}
			}

			for step := 0; step < steps; step++ {
				var op string
				switch r := rng.Intn(100); {
				case r < 18:
					i := rng.Intn(60) // a small key space, so some submits are duplicates
					op = fmt.Sprintf("submit k/%d", i)
					s1, d1, e1 := q.Submit(fmt.Sprintf("k/%d", i), plans[i%len(plans)])
					s2, d2, e2 := ref.Submit(fmt.Sprintf("k/%d", i), plans[i%len(plans)])
					if s1 != s2 || d1 != d2 || e1 != e2 {
						t.Fatalf("%s = (%d, %v, %v), oracle (%d, %v, %v)", op, s1, d1, e1, s2, d2, e2)
					}
				case r < 33:
					w, n := workers[rng.Intn(len(workers))], rng.Intn(5)
					op = fmt.Sprintf("pull %s %d", w, n)
					u1, e1 := q.Pull(w, n)
					u2, e2 := ref.Pull(w, n)
					if e1 != nil || e2 != nil {
						t.Fatalf("%s: %v, oracle %v", op, e1, e2)
					}
					sameUnits(op, u1, u2)
				case r < 47:
					seqs := make([]int64, 1+rng.Intn(4))
					for i := range seqs {
						seqs[i] = leasedSeq()
					}
					// Mostly the worker that holds the first of them.
					w := workers[rng.Intn(len(workers))]
					if s := seqs[0]; s >= 0 && s < int64(len(ref.tasks)) && ref.tasks[s].State == TaskLeased && rng.Intn(4) > 0 {
						w = ref.tasks[s].Worker
					}
					op = fmt.Sprintf("heartbeat %s %v", w, seqs)
					for _, s := range seqs {
						if s >= 0 && s < int64(len(ref.tasks)) && ref.tasks[s].State == TaskLeased && ref.tasks[s].Worker == w {
							if _, ok := extended[s]; !ok {
								extended[s] = ref.tasks[s].deadline
							}
						}
					}
					if n1, n2 := q.Heartbeat(w, seqs), ref.Heartbeat(w, seqs); n1 != n2 {
						t.Fatalf("%s extended %d, oracle %d", op, n1, n2)
					}
				case r < 62:
					// A worker's exchange: a batch of reports — leased units
					// mostly, sometimes anything, a repeat, an unknown seq —
					// and a pull.
					w, pull := workers[rng.Intn(len(workers))], rng.Intn(5)
					reports := make([]Report, rng.Intn(5))
					for i := range reports {
						reports[i] = Report{Seq: leasedSeq(), Attempt: rng.Intn(3)}
						if i > 0 && rng.Intn(6) == 0 {
							reports[i].Seq = reports[i-1].Seq
						}
						if rng.Intn(5) == 0 {
							reports[i].Err = "deterministic build failure"
						} else {
							// Workers send sorted pairs; a hostile one may
							// send them in any order, repeated, or zero. The
							// oracle merges them through a map.
							for k := rng.Intn(4); k >= 0; k-- {
								bits := []string{"00", "01", "11"}[rng.Intn(3)]
								reports[i].Counts = append(reports[i].Counts, wire.Count{Bits: bits, N: rng.Intn(9)})
							}
						}
					}
					op = fmt.Sprintf("exchange %s %+v pull %d", w, reports, pull)
					ex, err := q.Exchange(w, reports, pull)
					if err != nil {
						t.Fatalf("%s: %v", op, err)
					}
					for i, r := range reports {
						accepted, state, err := ref.Result(w, r.Seq, r.Attempt, wire.PairsToCounts(r.Counts), r.Err)
						if err != nil {
							accepted, state = false, TaskUnknown
						}
						if o := ex.Outcomes[i]; o.Accepted != accepted || o.State != state {
							t.Fatalf("%s: report %d = %+v, oracle (%v, %s)", op, i, o, accepted, state)
						}
					}
					var units []wire.Unit
					if pull > 0 {
						if units, err = ref.Pull(w, pull); err != nil {
							t.Fatal(err)
						}
					}
					sameUnits(op, ex.Units, units)
					if ex.Sealed != ref.sealed {
						t.Fatalf("%s: sealed %v, oracle %v", op, ex.Sealed, ref.sealed)
					}
				case r < 66:
					seq := anySeq()
					op = fmt.Sprintf("late or duplicate result %d", seq)
					if seq >= 0 && seq < int64(len(ref.tasks)) && ref.tasks[seq].requeuePending {
						seen.lateResult++ // its lease expired; the result lands anyway
					}
					a1, s1, e1 := q.Result("w9", seq, 1, map[string]int{"01": 4}, "")
					a2, s2, e2 := ref.Result("w9", seq, 1, map[string]int{"01": 4}, "")
					if a1 != a2 || s1 != s2 || (e1 == nil) != (e2 == nil) {
						t.Fatalf("%s = (%v, %s, %v), oracle (%v, %s, %v)", op, a1, s1, e1, a2, s2, e2)
					}
				case r < 72:
					key, seq := "", anySeq()
					if rng.Intn(2) == 0 {
						key = fmt.Sprintf("k/%d", rng.Intn(70))
					}
					op = fmt.Sprintf("cancel %q %d", key, seq)
					a1, s1, e1 := q.Cancel(key, seq)
					a2, s2, e2 := ref.Cancel(key, seq)
					if a1 != a2 || s1 != s2 || (e1 == nil) != (e2 == nil) {
						t.Fatalf("%s = (%v, %s, %v), oracle (%v, %s, %v)", op, a1, s1, e1, a2, s2, e2)
					}
				case r < 97, r < 98 && step < steps*3/4: // no seal before the last quarter
					d := time.Duration(rng.Intn(500)) * time.Millisecond
					if rng.Intn(8) == 0 {
						d = time.Duration(1000+rng.Intn(1500)) * time.Millisecond // past a lease
					}
					op = fmt.Sprintf("advance %v", d)
					clk.Advance(d)
				case r < 98:
					op = "seal"
					if e1, e2 := q.Seal(), ref.Seal(); e1 != nil || e2 != nil {
						t.Fatalf("seal: %v, oracle %v", e1, e2)
					}
				default:
					op = "close and reopen"
					if err := q.Close(); err != nil {
						t.Fatal(err)
					}
					if q, err = OpenQueue(qcfg); err != nil {
						t.Fatal(err)
					}
					ref.close(t)
					ref = openRef(t, rcfg, ref)
					led.restart()
					seen.reopen++
				}

				st := q.Stats()
				if rst := ref.Stats(); st != rst {
					t.Fatalf("step %d (%s): Stats %+v, oracle %+v", step, op, st, rst)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (%s): events diverge:\n got  %+v\n want %+v", step, op, got[min(folded, len(got)):], want[min(folded, len(want)):])
				}
				for _, stream := range []string{submitsDirName, resultsDirName} {
					if a, b := streamBytes(t, qcfg.Dir, stream), streamBytes(t, rcfg.Dir, stream); !bytes.Equal(a, b) {
						t.Fatalf("step %d (%s): %s log is %d bytes, oracle's %d, or differs in content", step, op, stream, len(a), len(b))
					}
				}
				for ; folded < len(got); folded++ {
					ev := got[folded]
					led.apply(t, ev)
					switch ev.Kind {
					case cloud.EventStart:
						delete(extended, ev.Seq)
						delete(rearmed, ev.Seq)
					case cloud.EventRequeue:
						seen.requeue++
					case cloud.EventRetry, cloud.EventError:
						if ev.Kind == cloud.EventRetry {
							seen.retry++
						} else if strings.HasPrefix(ev.Err, "lease expired") {
							seen.exhausted++
						} else {
							break
						}
						if rearmed[ev.Seq] {
							seen.expiredAfterRearm++
						}
					}
				}
				for seq, first := range extended {
					if ref.tasks[seq].State == TaskLeased && !clk.now.Before(first) {
						rearmed[seq] = true
					}
				}
				led.check(t, st)
			}

			// The log the oracle wrote is one Queue recovers from, to the
			// same state and the same merged counts.
			if err := q.Close(); err != nil {
				t.Fatal(err)
			}
			ref.close(t)
			if q, err = OpenQueue(qcfg); err != nil {
				t.Fatal(err)
			}
			rcfg.OnEvent = nil
			fromRef, err := OpenQueue(rcfg)
			if err != nil {
				t.Fatalf("recovering from the oracle's log: %v", err)
			}
			defer fromRef.Close()
			if a, b := q.Stats(), fromRef.Stats(); a != b {
				t.Fatalf("recovered Stats %+v, from the oracle's log %+v", a, b)
			}
			if !bytes.Equal(q.CountsCSV(), fromRef.CountsCSV()) {
				t.Fatal("counts CSV differs between the two recovered logs")
			}
		})
	}
}

// TestQueueCheckpointNeverAheadOfLog kills the queue — by copying its
// directory as the OS holds it, which is what a SIGKILL leaves — at
// every event inside a result batch that checkpoints after each item.
// A checkpoint taken mid-batch must pin no record that is still
// buffered in the process: every copy must recover, to exactly the
// results its log holds.
func TestQueueCheckpointNeverAheadOfLog(t *testing.T) {
	plans := testPlans(t, 3, 12)
	dir := t.TempDir()
	var kills []string
	inBatch := false
	q, err := OpenQueue(QueueConfig{Dir: dir, Seed: 11, CheckpointEvery: 1, OnEvent: func(wire.Event) {
		if !inBatch {
			return
		}
		kill := t.TempDir()
		if err := os.CopyFS(kill, os.DirFS(dir)); err != nil {
			t.Fatal(err)
		}
		kills = append(kills, kill)
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	const n = 6
	for i := 0; i < n; i++ {
		if _, _, err := q.Submit(fmt.Sprintf("k/%d", i), plans[i]); err != nil {
			t.Fatal(err)
		}
	}
	units, err := q.Pull("w", n)
	if err != nil || len(units) != n {
		t.Fatalf("pull = %d units, %v", len(units), err)
	}
	reports := make([]Report, n)
	for i, u := range units {
		reports[i] = Report{Seq: u.Seq, Attempt: u.Attempt, Counts: []wire.Count{{Bits: "00", N: 1}}}
	}
	inBatch = true
	if _, err := q.Exchange("w", reports, 0); err != nil {
		t.Fatal(err)
	}
	inBatch = false

	pinned := int64(0)
	for i, kill := range kills {
		ck, err := readCheckpoint(filepath.Join(kill, ckptName))
		if err != nil {
			t.Fatal(err)
		}
		scan, err := journal.Scan(filepath.Join(kill, resultsDirName))
		if err != nil {
			t.Fatal(err)
		}
		if ck != nil {
			pinned = max(pinned, ck.ResultRecs)
			if ck.ResultRecs > scan.Records {
				t.Errorf("kill at event %d: checkpoint pins %d completion records, the log holds %d", i, ck.ResultRecs, scan.Records)
			}
		}
		r, err := OpenQueue(QueueConfig{Dir: kill, Seed: 11})
		if err != nil {
			t.Errorf("kill at event %d: %v", i, err)
			continue
		}
		if st := r.Stats(); int64(st.Done) != scan.Records || st.Jobs != n {
			t.Errorf("kill at event %d: recovered %+v from a log of %d results", i, st, scan.Records)
		}
		r.Close()
	}
	if len(kills) != n || pinned < n-1 {
		t.Fatalf("%d kills, highest watermark seen %d: no checkpoint was caught mid-batch", len(kills), pinned)
	}
}
