package tenant

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/trace"
)

// Submission is one tenant job bound for a named queue. The spec's
// SubmitTime is the tenant's arrival instant; the broker releases the
// job into the session at a later decision tick, rewriting the
// session-side SubmitTime to the release instant and the User to the
// queue's identity ("tenant:<queue>").
type Submission struct {
	Queue string
	Spec  *cloud.JobSpec
}

// Job is the broker-side token for one tenant submission.
type Job struct {
	queue    *queueState
	spec     cloud.JobSpec // template; SubmitTime is the tenant arrival
	arrive   float64
	seq      int64
	machIdx  int
	est      float64 // estimated QPU-seconds (provisional ledger charge)
	admitSec float64 // tick of the latest admission
	preempts int
	handle   *cloud.JobHandle // the current admission; nil while backlogged
}

// Broker admits tenant submissions into a shared cloud.Session from
// time-aware fair-share accounting. All methods must be called from
// one goroutine (the session driver); everything the broker decides is
// a pure function of simulated time, the seed, and the submission
// stream.
type Broker struct {
	sess     *cloud.Session
	cfg      Config
	machines []*backend.Machine
	fleet    cloud.FleetIndex

	queues []*queueState // declaration order, ledger-indexed
	byName map[string]*queueState
	ledger *Ledger

	start   time.Time
	endSec  float64
	tickSec float64
	tick    int64 // next unprocessed tick index
	nowSec  float64

	// machAdmitted holds each machine's admitted-and-unrecorded broker
	// jobs in admission order: the slots MaxPerMachine caps, the
	// preemption scan and the jobs drain looks for records in.
	machAdmitted [][]*Job

	seq         int64
	totalPend   int
	totalInFl   int
	preemptions int
	finished    bool
}

// Open opens a session from ccfg and resolves the queues. The broker
// charges its ledger from the records the session keeps in memory, so
// ccfg must not journal.
func Open(ccfg cloud.Config, tcfg Config) (*Broker, error) {
	if ccfg.Journal != nil {
		return nil, fmt.Errorf("tenant: a journaled session keeps no records for the broker to account")
	}
	tcfg = tcfg.withDefaults()
	queues, byName, err := resolveTree(tcfg.Queues)
	if err != nil {
		return nil, err
	}
	b := &Broker{
		cfg:     tcfg,
		queues:  queues,
		byName:  byName,
		tickSec: tcfg.Tick.Seconds(),
	}
	names := make([]string, len(queues))
	for i, q := range queues {
		names[i] = q.cfg.Name
	}
	sess, err := cloud.Open(ccfg)
	if err != nil {
		return nil, err
	}
	b.sess = sess
	b.machines = sess.Machines()
	b.fleet = cloud.IndexFleet(ccfg)
	b.machAdmitted = make([][]*Job, len(b.machines))
	start, end := sess.Window()
	b.start = start
	b.endSec = end.Sub(start).Seconds()
	b.ledger = NewLedger(names, tcfg.HalfLife, 0)
	return b, nil
}

// Session exposes the underlying session (for Stats, QueueState and
// direct submissions, which the broker's accounting simply ignores).
func (b *Broker) Session() *cloud.Session { return b.sess }

// Ledger exposes the allocation ledger for assertions and dumps.
func (b *Broker) Ledger() *Ledger { return b.ledger }

// Now returns the broker's decision frontier in sim-seconds.
func (b *Broker) Now() float64 { return b.nowSec }

func (b *Broker) toSec(t time.Time) float64 { return t.Sub(b.start).Seconds() }
func (b *Broker) toTime(s float64) time.Time {
	return b.start.Add(time.Duration(s * float64(time.Second)))
}

// Submit enters a tenant job into its queue's backlog. The spec's
// SubmitTime is the arrival instant and must not lie behind the
// broker's frontier, and the session must be able to run the spec (the
// FleetIndex.Check that Session.Submit applies): a spec it would refuse
// at admission is refused here instead of wedging its queue's head.
func (b *Broker) Submit(queue string, spec *cloud.JobSpec) (*Job, error) {
	q := b.byName[queue]
	if q == nil {
		return nil, fmt.Errorf("tenant: unknown queue %q", queue)
	}
	if err := b.fleet.Check(spec); err != nil {
		return nil, err
	}
	mi := b.fleet[spec.Machine]
	arrive := b.toSec(spec.SubmitTime)
	if arrive < b.nowSec {
		return nil, fmt.Errorf("tenant: submission at %s is behind the broker frontier %s",
			spec.SubmitTime.Format(time.RFC3339), b.toTime(b.nowSec).Format(time.RFC3339))
	}
	b.seq++
	job := &Job{
		queue: q, spec: *spec, arrive: arrive, seq: b.seq, machIdx: mi,
		est: b.machines[mi].ExecSeconds(spec.BatchSize, spec.Shots, spec.TotalDepth),
	}
	q.insertPending(job)
	q.arrived++
	b.totalPend++
	return job, nil
}

// insertPending keeps the backlog ordered by (arrive, seq) — fresh
// arrivals append, requeued preemptees re-enter at their original
// position.
func (q *queueState) insertPending(job *Job) {
	i := sort.Search(len(q.pending), func(k int) bool {
		p := q.pending[k]
		if p.arrive != job.arrive {
			return p.arrive > job.arrive
		}
		return p.seq > job.seq
	})
	q.pending = append(q.pending, nil)
	copy(q.pending[i+1:], q.pending[i:])
	q.pending[i] = job
}

// AdvanceTo moves the broker's frontier to t, processing every
// decision tick on the way: advance the session, drain completion
// records into the ledger, then preempt/admit.
func (b *Broker) AdvanceTo(t time.Time) error {
	now := b.toSec(t)
	if now < b.nowSec {
		return fmt.Errorf("tenant: AdvanceTo(%s) is behind the broker frontier", t.Format(time.RFC3339))
	}
	for {
		ts := float64(b.tick) * b.tickSec
		if ts > now {
			break
		}
		if b.totalPend == 0 && b.totalInFl == 0 {
			// Nothing to decide and nothing outstanding: skip the
			// intermediate ticks entirely. The session advances lazily at
			// the next live tick — AdvanceTo is incremental, so the end
			// state is identical.
			b.tick = int64(math.Floor(now/b.tickSec)) + 1
			break
		}
		if err := b.processTick(ts); err != nil {
			return err
		}
		b.tick++
	}
	b.nowSec = now
	return nil
}

func (b *Broker) processTick(ts float64) error {
	b.sess.AdvanceTo(b.toTime(ts))
	b.drain()
	return b.decide(ts)
}

// drain charges the ledger for every admitted job the session has
// recorded since the last drain, in a deterministic order: end time,
// then machine index, then admission order (the stable sort keeps the
// collection order on ties). Preempted jobs left machAdmitted when
// they were withdrawn, and direct session submissions were never in
// it, so neither is charged here.
func (b *Broker) drain() {
	var done []*Job
	for mi, adm := range b.machAdmitted {
		kept := adm[:0]
		for _, job := range adm {
			if job.handle.Record() != nil {
				done = append(done, job)
			} else {
				kept = append(kept, job)
			}
		}
		b.machAdmitted[mi] = kept
	}
	sort.SliceStable(done, func(i, j int) bool {
		return done[i].handle.Record().EndTime.Before(done[j].handle.Record().EndTime)
	})
	for _, job := range done {
		rec := job.handle.Record()
		q := job.queue
		startSec, endSec := b.toSec(rec.StartTime), b.toSec(rec.EndTime)
		dur := endSec - startSec
		if dur < 0 {
			dur = 0
		}
		b.ledger.Charge(q.idx, endSec, dur)
		q.outstanding -= job.est
		q.inFlight--
		b.totalInFl--
		switch rec.Status {
		case trace.StatusDone:
			q.done++
		case trace.StatusError:
			q.errored++
		default:
			q.cancelled++
		}
		if rec.Status != trace.StatusCancelled {
			wait := startSec - job.arrive
			if wait < 0 {
				wait = 0
			}
			q.waitSum += wait
			q.waitN++
			if wait > q.waitMax {
				q.waitMax = wait
			}
		}
	}
}

func (b *Broker) removeAdmitted(mi int, job *Job) {
	adm := b.machAdmitted[mi]
	for i, j := range adm {
		if j == job {
			b.machAdmitted[mi] = append(adm[:i], adm[i+1:]...)
			return
		}
	}
}

// shareRatio is q's fraction of current (decayed + provisional)
// allocation relative to its deserved fraction: 1 means exactly at
// quota, >1 over, <1 under. With no allocation anywhere, everyone is
// at 0.
func (b *Broker) shareRatio(q *queueState, ts, totalBase float64) float64 {
	if totalBase <= 0 {
		return 0
	}
	return (b.ledger.DecayedAt(q.idx, ts) + q.outstanding) / (q.deserved * totalBase)
}

// orderKey is the admission-ordering key within a priority band:
// under-quota queues order by their share ratio; over-quota queues
// divide their excess by the over-quota weight, so heavier queues are
// favored for surplus capacity.
func (b *Broker) orderKey(q *queueState, ts, totalBase float64) float64 {
	r := b.shareRatio(q, ts, totalBase)
	if r <= 1 {
		return r
	}
	return 1 + (r-1)/q.oqw
}

func (b *Broker) totalBase(ts float64) float64 {
	t := 0.0
	for _, q := range b.queues {
		t += b.ledger.DecayedAt(q.idx, ts) + q.outstanding
	}
	return t
}

// decide is one admission pass: repeatedly pick the most deserving
// backlogged queue (priority band first, then fairness key, then name)
// and release its head job, preempting an over-quota or lower-priority
// victim when the target machine is full and preemption is enabled.
// The pass ends when no candidate can place a job.
func (b *Broker) decide(ts float64) error {
	if ts >= b.endSec {
		return nil // admissions at the boundary would be doomed
	}
	type cand struct {
		q   *queueState
		key float64
	}
	for b.totalPend > 0 {
		total := b.totalBase(ts)
		var cands []cand
		for _, q := range b.queues {
			if len(q.pending) == 0 {
				continue
			}
			cands = append(cands, cand{q, b.orderKey(q, ts, total)})
		}
		sort.Slice(cands, func(i, j int) bool {
			a, c := cands[i], cands[j]
			if a.q.cfg.Priority != c.q.cfg.Priority {
				return a.q.cfg.Priority > c.q.cfg.Priority
			}
			if a.key != c.key {
				return a.key < c.key
			}
			return a.q.cfg.Name < c.q.cfg.Name
		})
		progressed := false
		for _, c := range cands {
			job := c.q.pending[0]
			mi := job.machIdx
			if len(b.machAdmitted[mi]) >= b.cfg.MaxPerMachine && b.cfg.Preemption {
				if err := b.tryPreempt(c.q, mi, ts, total); err != nil {
					return err
				}
			}
			if len(b.machAdmitted[mi]) >= b.cfg.MaxPerMachine {
				continue
			}
			ok, err := b.admit(job, ts)
			if err != nil {
				return err
			}
			if ok {
				progressed = true
				break
			}
		}
		if !progressed {
			return nil
		}
	}
	return nil
}

// tryPreempt frees a slot on machine mi for queue s by withdrawing the
// least deserving still-queued broker job: lower priority band first,
// then (within the band) a queue over its deserved share by more than
// the slack while s is under by more than the slack. Scanning runs
// newest admission first, so the youngest over-quota job is displaced.
// The victim is cancelled with CancelPreempted and requeued into its
// backlog at its original arrival position.
func (b *Broker) tryPreempt(s *queueState, mi int, ts, totalBase float64) error {
	rs := b.shareRatio(s, ts, totalBase)
	adm := b.machAdmitted[mi]
	var best *Job
	for i := len(adm) - 1; i >= 0; i-- {
		j := adm[i]
		v := j.queue
		if v == s || j.preempts >= maxPreemptions {
			continue
		}
		if j.admitSec >= ts {
			// Admitted this very tick: the machine has not enqueued the
			// spec yet, so displacing it would be pure churn — the
			// admission decision it reverses was made seconds ago with
			// the same information.
			continue
		}
		eligible := v.cfg.Priority < s.cfg.Priority ||
			(v.cfg.Priority == s.cfg.Priority &&
				b.shareRatio(v, ts, totalBase) > 1+preemptSlack &&
				rs < 1-preemptSlack)
		if !eligible {
			continue
		}
		if best == nil || j.queue.cfg.Priority < best.queue.cfg.Priority {
			best = j
		}
	}
	if best == nil {
		return nil
	}
	if err := b.sess.CancelWithReason(best.handle, cloud.CancelPreempted); err != nil {
		return fmt.Errorf("tenant: preempt on %s: %w", b.machines[mi].Name, err)
	}
	v := best.queue
	v.outstanding -= best.est
	v.inFlight--
	b.totalInFl--
	b.removeAdmitted(mi, best)
	v.preempted++
	b.preemptions++
	best.preempts++
	best.handle = nil
	v.insertPending(best)
	b.totalPend++
	return nil
}

// admit releases a queue's head job into the session at tick ts. A
// transient API rejection that survives SubmitRetried leaves the job
// at the head for the next tick (ok=false); other submit errors are
// terminal.
func (b *Broker) admit(job *Job, ts float64) (bool, error) {
	q := job.queue
	clone := job.spec
	clone.SubmitTime = b.toTime(ts)
	clone.User = "tenant:" + q.cfg.Name
	h, err := b.sess.SubmitRetried(&clone, 0)
	if err != nil {
		if errors.Is(err, cloud.ErrTransientSubmit) {
			return false, nil
		}
		return false, err
	}
	q.pending = q.pending[1:]
	b.totalPend--
	job.handle = h
	job.admitSec = ts
	q.outstanding += job.est
	q.inFlight++
	b.totalInFl++
	b.machAdmitted[job.machIdx] = append(b.machAdmitted[job.machIdx], job)
	q.admitted++
	return true, nil
}

// Play drives a whole submission stream through the broker in arrival
// order (a stable sort makes the order canonical), leaving the broker
// ready for Run.
func (b *Broker) Play(subs []Submission) error {
	ordered := append([]Submission(nil), subs...)
	sort.SliceStable(ordered, func(i, j int) bool {
		return ordered[i].Spec.SubmitTime.Before(ordered[j].Spec.SubmitTime)
	})
	for _, sub := range ordered {
		if err := b.AdvanceTo(sub.Spec.SubmitTime); err != nil {
			return err
		}
		if _, err := b.Submit(sub.Queue, sub.Spec); err != nil {
			return err
		}
	}
	return nil
}

// Run processes the remaining ticks, marks whatever never got released
// as unserved, finalizes the session and drains the last completion
// records. The returned trace contains every job the broker released
// (session SubmitTime = release instant, User = "tenant:<queue>").
func (b *Broker) Run() (*trace.Trace, error) {
	if b.finished {
		return nil, fmt.Errorf("tenant: broker already ran")
	}
	if err := b.AdvanceTo(b.toTime(b.endSec)); err != nil {
		return nil, err
	}
	for _, q := range b.queues {
		q.unserved += len(q.pending)
		b.totalPend -= len(q.pending)
		q.pending = nil
	}
	tr, err := b.sess.Run()
	if err != nil {
		return nil, err
	}
	b.drain()
	b.finished = true
	return tr, nil
}

// Close releases the underlying session. Closing after Run is a no-op
// (Run closes the session implicitly).
func (b *Broker) Close() error {
	if err := b.sess.Close(); err != nil && !errors.Is(err, cloud.ErrSessionClosed) {
		return err
	}
	return nil
}
