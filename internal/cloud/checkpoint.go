package cloud

import (
	"fmt"
	"io"
	"sort"
	"time"

	"qcloud/internal/fault"
	"qcloud/internal/trace"
)

// checkpointVersion is the snapshot payload version; bump it whenever
// MachineCheckpoint's layout or semantics change so stale snapshots
// are rejected instead of silently misread. Version 2 adds the CRC32C
// snapshot footer and the Journal* resume fields; version 3 adds the
// cancel-reason classification on pending withdrawals. Older files are
// still readable (missing fields decode as zero / unclassified).
const checkpointVersion byte = 3

// checkpointOldestReadable is the oldest envelope version
// ReadCheckpoint still accepts.
const checkpointOldestReadable byte = 1

// Checkpoint is a complete, restorable snapshot of an open session:
// every machine's queue heap, arrival-stream cursors, fair-share
// accumulators, fault/retry state, in-flight frontier, and the trace
// records produced so far. Restoring it into a freshly opened session
// with the same Config resumes the run bit-for-bit — the crash-replay
// contract the future dispatcher/worker split inherits.
type Checkpoint struct {
	// Seed, Start and End identify the run; Restore refuses a config
	// that disagrees.
	Seed       int64
	Start, End time.Time
	// Faults and Retry pin the robustness configuration the snapshot
	// was taken under (both shape the event timeline).
	Faults *fault.Profile
	Retry  *RetryPolicy
	// Machines holds per-machine state in fleet order.
	Machines []MachineCheckpoint

	// Journal* pin the durable-journal resume point for sessions in
	// journal mode (zero otherwise): the per-machine stream record
	// counts and input-log length at snapshot time, this checkpoint's
	// sequence number in its journal directory, and the next
	// auto-checkpoint instant.
	JournalMachineRecords []int64
	JournalSubmits        int64
	JournalSeq            int64
	JournalNextCkpt       time.Time
}

// MachineCheckpoint is one machine's serialized state. Spec-pointer
// fields are stored as indices into Specs; the RNG is pinned by its
// draw count (construction replays deterministically, then the source
// fast-forwards to the recorded count).
type MachineCheckpoint struct {
	Name string
	Dead bool

	RNGDraws          uint64
	Frontier          float64
	FrontierInclusive bool
	Finished          bool
	BusyUntil         float64
	InStep            bool
	StepEndsAt        float64
	AdmittedDuring    int
	Seq               int64
	NextSample        float64

	// Monotone cursors: downtime displacement, outage announcement,
	// burst/staleness windows, submit-fault sequence, background
	// surge/arrival stream.
	DtIdx       int
	AnnIdx      int
	AnnPhase    int
	BurstIdx    int
	StaleIdx    int
	SubmitSeq   int64
	BgSurgeIdx  int
	BgNextAt    float64
	BgExhausted bool

	Specs   []JobSpec
	SpecIdx int
	// Queue preserves the heap slice verbatim (a valid heap reloads as
	// one); Retries preserves the (at, id)-sorted backoff list.
	Queue   []QueuedJobCheckpoint
	Retries []RetryCheckpoint
	// CancelledAt / Recorded mark specs (by index) withdrawn but not
	// yet recorded, and specs with a terminal trace record.
	CancelledAt []SpecCancelCheckpoint
	Recorded    []int

	Jobs       []trace.Job
	Stats      trace.MachineStats
	WaitRatios []float64

	Usage      []UserUsageCheckpoint
	RetrySpent []UserCountCheckpoint
}

// QueuedJobCheckpoint is one queue-heap entry; SpecIdx is -1 for
// background jobs.
type QueuedJobCheckpoint struct {
	SpecIdx         int
	Submit          float64
	ExecSec         float64
	Patience        float64
	Priority        float64
	Seq             int64
	ID              int64
	User            string
	Attempt         int
	PendingAtSubmit int
}

// RetryCheckpoint is one pending retry; SpecIdx is -1 for background
// jobs.
type RetryCheckpoint struct {
	SpecIdx  int
	At       float64
	ExecSec  float64
	Patience float64
	User     string
	ID       int64
	Attempt  int
}

// SpecCancelCheckpoint marks a queued spec withdrawn at At. Reason is
// the cancel classification carried onto the eventual terminal event
// (empty in pre-v3 snapshots, which restore as unclassified cancels).
type SpecCancelCheckpoint struct {
	SpecIdx int
	At      float64
	Reason  CancelReason
}

// UserUsageCheckpoint is one fair-share accumulator.
type UserUsageCheckpoint struct {
	User      string
	Usage     float64
	LastDecay float64
}

// UserCountCheckpoint is one per-user retry-budget counter.
type UserCountCheckpoint struct {
	User string
	N    int
}

// Checkpoint snapshots the session's full state at its current
// frontiers. The session stays open and can keep advancing; the
// snapshot is an independent copy.
func (s *Session) Checkpoint() (*Checkpoint, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.jr != nil {
		if err := s.jr.haltErr(); err != nil {
			return nil, err
		}
	}
	ck := &Checkpoint{
		Seed:   s.cfg.Seed,
		Start:  s.cfg.Start,
		End:    s.cfg.End,
		Faults: s.cfg.Faults,
		Retry:  s.cfg.Retry,
	}
	for _, ms := range s.sims {
		ck.Machines = append(ck.Machines, ms.checkpoint())
	}
	return ck, nil
}

func (ms *machineSim) checkpoint() MachineCheckpoint {
	mc := MachineCheckpoint{Name: ms.m.Name, Dead: ms.dead}
	if ms.dead {
		return mc
	}
	mc.RNGDraws = ms.rsrc.draws
	mc.Frontier, mc.FrontierInclusive = ms.frontier, ms.frontierInclusive
	mc.Finished = ms.finished
	mc.BusyUntil = ms.busyUntil
	mc.InStep, mc.StepEndsAt, mc.AdmittedDuring = ms.inStep, ms.stepEndsAt, ms.admittedDuringStep
	mc.Seq, mc.NextSample = ms.seq, ms.nextSample
	mc.DtIdx, mc.AnnIdx, mc.AnnPhase = ms.dtIdx, ms.annIdx, ms.annPhase
	mc.BurstIdx, mc.StaleIdx, mc.SubmitSeq = ms.burstIdx, ms.staleIdx, ms.submitSeq
	mc.BgSurgeIdx, mc.BgNextAt, mc.BgExhausted = ms.bg.surgeIdx, ms.bg.nextAt, ms.bg.exhausted

	specIndex := make(map[*JobSpec]int, len(ms.specs))
	for i, sp := range ms.specs {
		specIndex[sp] = i
		mc.Specs = append(mc.Specs, *sp)
		// Spec-keyed maps are walked through the ordered spec slice, so
		// checkpoint bytes are deterministic (specs removed by a
		// pre-admission cancel were recorded immediately and are
		// unreachable after a restore; dropping them is safe).
		if at, ok := ms.cancelledAt[sp]; ok {
			mc.CancelledAt = append(mc.CancelledAt, SpecCancelCheckpoint{SpecIdx: i, At: at, Reason: ms.cancelReason[sp]})
		}
		if ms.recorded[sp] {
			mc.Recorded = append(mc.Recorded, i)
		}
	}
	mc.SpecIdx = ms.specIdx

	for _, q := range ms.queue {
		cj := QueuedJobCheckpoint{
			SpecIdx: -1, Submit: q.submit, ExecSec: q.execSec, Patience: q.patience,
			Priority: q.priority, Seq: q.seq, ID: q.id, User: q.user,
			Attempt: q.attempt, PendingAtSubmit: q.pendingAtSubmit,
		}
		if q.spec != nil {
			cj.SpecIdx = specIndex[q.spec]
		}
		mc.Queue = append(mc.Queue, cj)
	}
	for _, rt := range ms.retries {
		cr := RetryCheckpoint{
			SpecIdx: -1, At: rt.at, ExecSec: rt.execSec, Patience: rt.patience,
			User: rt.user, ID: rt.id, Attempt: rt.attempt,
		}
		if rt.spec != nil {
			cr.SpecIdx = specIndex[rt.spec]
		}
		mc.Retries = append(mc.Retries, cr)
	}

	for _, j := range ms.jobs {
		mc.Jobs = append(mc.Jobs, *j)
	}
	mc.Stats = *ms.mstats
	mc.WaitRatios = append([]float64(nil), ms.waitRatios...)

	// Accumulators are serialized by name, sorted, whichever table holds
	// them; account maps the names back on restore.
	for n := range ms.bgAccts {
		if a := &ms.bgAccts[n]; a.seen {
			mc.Usage = append(mc.Usage, UserUsageCheckpoint{User: ms.bgNames[n], Usage: a.usage, LastDecay: a.last})
		}
	}
	// Names are unique across both tables, so the sort below fixes the
	// order whatever the map yields.
	//qcloud:orderinvariant
	for u, a := range ms.namedAccts {
		mc.Usage = append(mc.Usage, UserUsageCheckpoint{User: u, Usage: a.usage, LastDecay: a.last})
	}
	sort.Slice(mc.Usage, func(i, j int) bool { return mc.Usage[i].User < mc.Usage[j].User })
	var spenders []string
	for u := range ms.retrySpent {
		spenders = append(spenders, u)
	}
	sort.Strings(spenders)
	for _, u := range spenders {
		mc.RetrySpent = append(mc.RetrySpent, UserCountCheckpoint{User: u, N: ms.retrySpent[u]})
	}
	return mc
}

// Restore opens a new session from cfg and overwrites its state with
// the checkpoint: construction replays the deterministic setup
// (downtime calendars, fault windows, surge episodes), the RNG
// fast-forwards to the recorded draw count, and every cursor, queue
// entry and record is reloaded. The config must be the one the
// checkpointed session was opened with; the identifying fields are
// validated, the rest (fleet composition, background model) must match
// by contract.
func Restore(cfg Config, ck *Checkpoint) (*Session, error) {
	if cfg.Journal != nil {
		return nil, fmt.Errorf("cloud: Restore cannot attach a journal; use Recover for journaled sessions")
	}
	c := cfg.withDefaults()
	if c.Seed != ck.Seed || !c.Start.Equal(ck.Start) || !c.End.Equal(ck.End) {
		return nil, fmt.Errorf("cloud: restore config mismatch: seed/window %d %s..%s vs checkpoint %d %s..%s",
			c.Seed, c.Start, c.End, ck.Seed, ck.Start, ck.End)
	}
	if (c.Faults == nil) != (ck.Faults == nil) || (c.Faults != nil && *c.Faults != *ck.Faults) {
		return nil, fmt.Errorf("cloud: restore config mismatch: fault profile differs from checkpoint")
	}
	if (c.Retry == nil) != (ck.Retry == nil) || (c.Retry != nil && *c.Retry != *ck.Retry) {
		return nil, fmt.Errorf("cloud: restore config mismatch: retry policy differs from checkpoint")
	}
	s, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	if len(s.sims) != len(ck.Machines) {
		return nil, fmt.Errorf("cloud: restore fleet mismatch: %d machines vs checkpoint %d", len(s.sims), len(ck.Machines))
	}
	for i := range ck.Machines {
		ms := s.sims[i]
		mc := &ck.Machines[i]
		if ms.m.Name != mc.Name {
			return nil, fmt.Errorf("cloud: restore fleet mismatch: machine %d is %s, checkpoint has %s", i, ms.m.Name, mc.Name)
		}
		if ms.dead != mc.Dead {
			return nil, fmt.Errorf("cloud: restore mismatch: machine %s dead=%v vs checkpoint %v", ms.m.Name, ms.dead, mc.Dead)
		}
		if ms.dead {
			continue
		}
		if err := ms.restore(mc); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (ms *machineSim) restore(mc *MachineCheckpoint) error {
	if mc.RNGDraws < ms.rsrc.draws {
		return fmt.Errorf("cloud: restore %s: checkpoint RNG count %d behind construction's %d (corrupt snapshot?)",
			ms.m.Name, mc.RNGDraws, ms.rsrc.draws)
	}
	for ms.rsrc.draws < mc.RNGDraws {
		ms.rsrc.Uint64()
	}
	ms.frontier, ms.frontierInclusive = mc.Frontier, mc.FrontierInclusive
	ms.finished = mc.Finished
	ms.busyUntil = mc.BusyUntil
	ms.inStep, ms.stepEndsAt, ms.admittedDuringStep = mc.InStep, mc.StepEndsAt, mc.AdmittedDuring
	ms.seq, ms.nextSample = mc.Seq, mc.NextSample
	ms.dtIdx, ms.annIdx, ms.annPhase = mc.DtIdx, mc.AnnIdx, mc.AnnPhase
	ms.burstIdx, ms.staleIdx, ms.submitSeq = mc.BurstIdx, mc.StaleIdx, mc.SubmitSeq
	ms.bg.surgeIdx, ms.bg.nextAt, ms.bg.exhausted = mc.BgSurgeIdx, mc.BgNextAt, mc.BgExhausted

	ms.specs = make([]*JobSpec, len(mc.Specs))
	ms.handles = make(map[*JobSpec]*JobHandle, len(mc.Specs))
	for i := range mc.Specs {
		sp := mc.Specs[i]
		ms.specs[i] = &sp
		ms.handles[&sp] = &JobHandle{spec: &sp, machine: ms.m.Name, sess: ms.sess}
	}
	ms.specIdx = mc.SpecIdx

	for _, u := range mc.Usage {
		*ms.account(u.User) = acct{usage: u.Usage, last: u.LastDecay, seen: true}
	}

	ms.queue = make(jobHeap, 0, len(mc.Queue))
	for _, cj := range mc.Queue {
		q := &queuedJob{
			submit: cj.Submit, execSec: cj.ExecSec, patience: cj.Patience,
			priority: cj.Priority, seq: cj.Seq, id: cj.ID, user: cj.User,
			attempt: cj.Attempt, pendingAtSubmit: cj.PendingAtSubmit,
		}
		if cj.SpecIdx >= 0 {
			if cj.SpecIdx >= len(ms.specs) {
				return fmt.Errorf("cloud: restore %s: queue entry spec index %d out of range", ms.m.Name, cj.SpecIdx)
			}
			q.spec = ms.specs[cj.SpecIdx]
		}
		q.acct = ms.account(cj.User)
		if !q.acct.seen {
			return fmt.Errorf("cloud: restore %s: queue entry for %q has no usage accumulator", ms.m.Name, cj.User)
		}
		ms.queue = append(ms.queue, q)
	}

	ms.retries = nil
	for _, cr := range mc.Retries {
		rt := pendingRetry{
			at: cr.At, execSec: cr.ExecSec, patience: cr.Patience,
			user: cr.User, id: cr.ID, attempt: cr.Attempt,
		}
		if cr.SpecIdx >= 0 {
			if cr.SpecIdx >= len(ms.specs) {
				return fmt.Errorf("cloud: restore %s: retry spec index %d out of range", ms.m.Name, cr.SpecIdx)
			}
			rt.spec = ms.specs[cr.SpecIdx]
		}
		ms.retries = append(ms.retries, rt)
	}

	ms.cancelledAt = make(map[*JobSpec]float64, len(mc.CancelledAt))
	ms.cancelReason = make(map[*JobSpec]CancelReason, len(mc.CancelledAt))
	for _, cc := range mc.CancelledAt {
		if cc.SpecIdx < 0 || cc.SpecIdx >= len(ms.specs) {
			return fmt.Errorf("cloud: restore %s: cancel spec index %d out of range", ms.m.Name, cc.SpecIdx)
		}
		ms.cancelledAt[ms.specs[cc.SpecIdx]] = cc.At
		if cc.Reason != "" {
			ms.cancelReason[ms.specs[cc.SpecIdx]] = cc.Reason
		}
	}
	ms.recorded = make(map[*JobSpec]bool, len(mc.Recorded))
	for _, ri := range mc.Recorded {
		if ri < 0 || ri >= len(ms.specs) {
			return fmt.Errorf("cloud: restore %s: recorded spec index %d out of range", ms.m.Name, ri)
		}
		ms.recorded[ms.specs[ri]] = true
	}

	ms.jobs = make([]*trace.Job, len(mc.Jobs))
	for i := range mc.Jobs {
		j := mc.Jobs[i]
		ms.jobs[i] = &j
	}
	st := mc.Stats
	ms.mstats = &st
	ms.waitRatios = append([]float64(nil), mc.WaitRatios...)

	if ms.retrySpent != nil || len(mc.RetrySpent) > 0 {
		ms.retrySpent = make(map[string]int, len(mc.RetrySpent))
		for _, uc := range mc.RetrySpent {
			ms.retrySpent[uc.User] = uc.N
		}
	}
	return nil
}

// WriteCheckpoint serializes the checkpoint through the versioned
// trace snapshot codec.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	return trace.WriteSnapshot(w, checkpointVersion, ck)
}

// ReadCheckpoint decodes a checkpoint, rejecting snapshots from other
// format versions.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	ck := &Checkpoint{}
	v, err := trace.ReadSnapshot(r, ck)
	if err != nil {
		return nil, err
	}
	if v < checkpointOldestReadable || v > checkpointVersion {
		return nil, fmt.Errorf("cloud: checkpoint version %d not supported (want %d..%d)", v, checkpointOldestReadable, checkpointVersion)
	}
	return ck, nil
}
