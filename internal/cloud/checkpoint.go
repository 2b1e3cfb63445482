package cloud

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"qcloud/internal/fault"
	"qcloud/internal/journal"
	"qcloud/internal/par"
	"qcloud/internal/trace"
)

// A checkpoint file is the magic, one version byte and one journal
// frame holding the checkpoint record. The version sits outside the
// frame so a file from another era (1-3 were gob payloads) is named by
// its version before a checksum is attempted. Bump it whenever the
// checkpoint or machine record layout changes.
const (
	checkpointMagic        = "QCSN"
	checkpointVersion byte = 5
)

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

	// Journal* pin the durable-journal resume point for sessions in
	// journal mode (zero otherwise): the per-machine stream record
	// counts and input-log length at snapshot time, this checkpoint's
	// sequence number in its journal directory, and the next
	// auto-checkpoint instant.
	JournalMachineRecords []int64
	JournalSubmits        int64
	JournalSeq            int64
	JournalNextCkpt       time.Time

	// machines holds one machine record per fleet member, in fleet
	// order: what machineSim.appendCheckpoint wrote and restore reads.
	machines [][]byte
}

// Checkpoint snapshots the session's full state at its current
// frontiers. The session stays open and can keep advancing; the
// snapshot is an independent copy. The machines encode their records
// concurrently, Config.Workers at a time, each into its own slot in
// fleet order, so the snapshot's bytes are the same at any worker
// count.
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
		Seed:     s.cfg.Seed,
		Start:    s.cfg.Start,
		End:      s.cfg.End,
		Faults:   s.cfg.Faults,
		Retry:    s.cfg.Retry,
		machines: make([][]byte, len(s.sims)),
	}
	s.forEachSim(func(ms *machineSim) {
		ck.machines[ms.idx] = ms.appendCheckpoint(make([]byte, 0, ms.checkpointSizeHint()))
	})
	return ck, nil
}

// checkpointSizeHint estimates the length of ms's machine record from
// its list lengths, so appendCheckpoint fills one buffer instead of
// growing it by doubling. Each element is allowed its fixed fields at
// typical varint widths, the machine name where the element repeats it,
// and a typical length for the user and circuit names it does not
// scan; a record of unusually long names grows the buffer once.
func (ms *machineSim) checkpointSizeHint() int {
	name := len(ms.m.Name)
	n := 256 + 2*name
	if ms.dead {
		return n
	}
	spec := 48 + name
	n += len(ms.specs) * spec
	// Every background user is counted, not only the seen ones.
	n += (len(ms.bgAccts) + len(ms.namedAccts)) * 32
	// A queue or retry entry of a study job carries its spec too.
	for _, q := range ms.queue {
		if n += 56; q.h != nil {
			n += spec
		}
	}
	for i := range ms.retries {
		if n += 48; ms.retries[i].h != nil {
			n += spec
		}
	}
	n += len(ms.jobs) * (64 + name)
	n += len(ms.mstats.PendingSamples) * (14 + name)
	return n + len(ms.waitRatios)*8
}

// appendCheckpoint appends the machine record: ms's state written
// straight from its fields, in the order restore reads them. Each live
// study job is written once, where the machine holds its handle: in the
// pending stream, the queue or the retries. A recorded job is held by
// none of them, so none is written. The RNG is pinned by its draw count
// (construction replays deterministically, then restore fast-forwards
// the source).
// Every list goes in an order the state fixes, so two sessions at one
// frontier write the same bytes whatever their worker counts.
func (ms *machineSim) appendCheckpoint(buf []byte) []byte {
	buf = journal.AppendString(buf, ms.m.Name)
	buf = journal.AppendBool(buf, ms.dead)
	if ms.dead {
		return buf
	}
	buf = binary.AppendUvarint(buf, ms.rsrc.draws)
	buf = journal.AppendFloat64(buf, ms.frontier)
	buf = journal.AppendBool(buf, ms.frontierInclusive)
	buf = journal.AppendBool(buf, ms.finished)
	buf = journal.AppendFloat64(buf, ms.busyUntil)
	buf = journal.AppendBool(buf, ms.inStep)
	buf = journal.AppendFloat64(buf, ms.stepEndsAt)
	buf = binary.AppendVarint(buf, int64(ms.admittedDuringStep))
	buf = binary.AppendVarint(buf, ms.seq)
	buf = journal.AppendFloat64(buf, ms.nextSample)
	// Monotone cursors: downtime displacement, outage announcement,
	// burst/staleness windows, submit-fault sequence, background
	// surge/arrival stream.
	buf = binary.AppendVarint(buf, int64(ms.dtIdx))
	buf = binary.AppendVarint(buf, int64(ms.annIdx))
	buf = binary.AppendVarint(buf, int64(ms.annPhase))
	buf = binary.AppendVarint(buf, int64(ms.burstIdx))
	buf = binary.AppendVarint(buf, int64(ms.staleIdx))
	buf = binary.AppendVarint(buf, ms.submitSeq)
	buf = binary.AppendVarint(buf, int64(ms.bg.surgeIdx))
	buf = journal.AppendFloat64(buf, ms.bg.nextAt)
	buf = journal.AppendBool(buf, ms.bg.exhausted)

	// A pending job is its spec alone: a cancel before admission records
	// the job and drops it from the stream at once.
	buf = binary.AppendUvarint(buf, uint64(len(ms.specs)))
	for _, h := range ms.specs {
		buf = appendJobSpec(buf, h.spec)
	}

	// Accumulators go by name, whichever table holds them (restore's
	// account maps the names back), before the queue that refers to them.
	// A user's retry budget goes with them: only a job that was queued,
	// so whose user has an accumulator, can have spent any.
	var users []string
	for n := range ms.bgAccts {
		if ms.bgAccts[n].seen {
			users = append(users, ms.bgNames[n])
		}
	}
	// Names are unique across both tables, so the sort below fixes the
	// order whatever the map yields.
	//qcloud:orderinvariant
	for u := range ms.namedAccts {
		users = append(users, u)
	}
	sort.Strings(users)
	buf = binary.AppendUvarint(buf, uint64(len(users)))
	for _, u := range users {
		a := ms.account(u)
		buf = journal.AppendString(buf, u)
		buf = journal.AppendFloat64(buf, a.usage)
		buf = journal.AppendFloat64(buf, a.last)
		buf = binary.AppendVarint(buf, int64(ms.retrySpent[u]))
	}

	// The heap slice goes verbatim (a valid heap reloads as one), the
	// retries in their (at, id) order.
	buf = binary.AppendUvarint(buf, uint64(len(ms.queue)))
	for _, q := range ms.queue {
		buf = appendHeldJob(buf, q.h)
		buf = journal.AppendFloat64(buf, q.submit)
		buf = journal.AppendFloat64(buf, q.execSec)
		buf = journal.AppendFloat64(buf, q.patience)
		buf = journal.AppendFloat64(buf, q.priority)
		buf = binary.AppendVarint(buf, q.seq)
		buf = binary.AppendVarint(buf, q.id)
		buf = journal.AppendString(buf, q.user)
		buf = binary.AppendVarint(buf, int64(q.attempt))
		buf = binary.AppendVarint(buf, int64(q.pendingAtSubmit))
	}
	buf = binary.AppendUvarint(buf, uint64(len(ms.retries)))
	for i := range ms.retries {
		rt := &ms.retries[i]
		buf = appendHeldJob(buf, rt.h)
		buf = journal.AppendFloat64(buf, rt.at)
		buf = journal.AppendFloat64(buf, rt.execSec)
		buf = journal.AppendFloat64(buf, rt.patience)
		buf = journal.AppendString(buf, rt.user)
		buf = binary.AppendVarint(buf, rt.id)
		buf = binary.AppendVarint(buf, int64(rt.attempt))
	}

	buf = binary.AppendUvarint(buf, uint64(len(ms.jobs)))
	for _, j := range ms.jobs {
		buf = trace.AppendJob(buf, j)
	}
	buf = trace.AppendMachineStats(buf, ms.mstats)
	buf = binary.AppendUvarint(buf, uint64(len(ms.waitRatios)))
	for _, w := range ms.waitRatios {
		buf = journal.AppendFloat64(buf, w)
	}
	return buf
}

// appendHeldJob writes the study job a queue or retry entry holds: a
// presence byte (0 for a background job's nil handle), then the spec
// and the withdrawal, with its instant and reason. A held job is never
// recorded: the server records a job as it takes it off the queue.
func appendHeldJob(buf []byte, h *JobHandle) []byte {
	buf = journal.AppendBool(buf, h != nil)
	if h == nil {
		return buf
	}
	buf = appendJobSpec(buf, h.spec)
	buf = journal.AppendBool(buf, h.withdrawn)
	if h.withdrawn {
		buf = journal.AppendFloat64(buf, h.cancelAt)
		buf = journal.AppendString(buf, string(h.reason))
	}
	return buf
}

// readHeldJob reads what appendHeldJob wrote into a fresh handle on ms
// (nil for a background job); Bool refuses a presence byte above 1.
func (ms *machineSim) readHeldJob(d *journal.RecordReader) *JobHandle {
	if !d.Bool() {
		return nil
	}
	h := &JobHandle{spec: &JobSpec{}, ms: ms}
	readJobSpec(d, h.spec)
	if h.withdrawn = d.Bool(); h.withdrawn {
		h.cancelAt = d.Float64()
		h.reason = CancelReason(d.String())
	}
	return h
}

// Restore opens a new session from cfg and overwrites its state with
// the checkpoint: construction replays the deterministic setup
// (downtime calendars, fault windows, surge episodes), the RNG
// fast-forwards to the recorded draw count, and every cursor, queue
// entry and record is reloaded. The config must be the one the
// checkpointed session was opened with; the identifying fields are
// validated, the rest (fleet composition, background model) must match
// by contract. The machines decode their records concurrently,
// Config.Workers at a time; when several records are malformed, the
// error names the first in fleet order, so it too is the same at any
// worker count.
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
	if len(s.sims) != len(ck.machines) {
		return nil, fmt.Errorf("cloud: restore fleet mismatch: %d machines vs checkpoint %d", len(s.sims), len(ck.machines))
	}
	// A machine that fails part-way is left half-read; the session is
	// dropped with it, so that state is never visible.
	errs := make([]error, len(s.sims))
	s.forEachSim(func(ms *machineSim) {
		if err := ms.restore(journal.NewRecordReader(ck.machines[ms.idx])); err != nil {
			errs[ms.idx] = fmt.Errorf("cloud: restore machine %d (%s): %w", ms.idx, ms.m.Name, err)
		}
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	return s, nil
}

// restore reads the machine record appendCheckpoint wrote into ms,
// freshly constructed from the checkpointed session's config. Each
// Count is given a floor on its element's encoded size. The RNG
// fast-forwards only once the whole record has read cleanly: that loop
// is as long as the record says, and all a checksum alone guards.
func (ms *machineSim) restore(d *journal.RecordReader) error {
	if name, dead := d.String(), d.Bool(); d.Err() == nil && (name != ms.m.Name || dead != ms.dead) {
		d.Reject("record is for machine %s (dead=%v), not %s (dead=%v)", name, dead, ms.m.Name, ms.dead)
	}
	if ms.dead || d.Err() != nil {
		return d.Finish()
	}
	draws := d.Uvarint()
	ms.frontier = d.Float64()
	ms.frontierInclusive = d.Bool()
	ms.finished = d.Bool()
	ms.busyUntil = d.Float64()
	ms.inStep = d.Bool()
	ms.stepEndsAt = d.Float64()
	ms.admittedDuringStep = d.Int()
	ms.seq = d.Varint()
	ms.nextSample = d.Float64()
	ms.dtIdx = d.Int()
	ms.annIdx = d.Int()
	ms.annPhase = d.Int()
	ms.burstIdx = d.Int()
	ms.staleIdx = d.Int()
	ms.submitSeq = d.Varint()
	ms.bg.surgeIdx = d.Int()
	ms.bg.nextAt = d.Float64()
	ms.bg.exhausted = d.Bool()

	ms.specs = make([]*JobHandle, d.Count(20))
	for i := range ms.specs {
		ms.specs[i] = &JobHandle{spec: &JobSpec{}, ms: ms}
		readJobSpec(d, ms.specs[i].spec)
	}

	// Names go strictly ascending and an unspent budget is a 0, never a
	// map entry: what decodes re-encodes to the same bytes.
	for i, prev, n := 0, "", d.Count(1+8+8+1); i < n; i++ {
		u := d.String()
		if i > 0 && u <= prev {
			d.Reject("usage accumulators out of order: %q after %q", u, prev)
		}
		prev = u
		a := ms.account(u)
		a.usage = d.Float64()
		a.last = d.Float64()
		a.seen = true
		if spent := d.Int(); spent != 0 && ms.retrySpent == nil {
			d.Reject("retry budget for %q on a machine with no retry policy", u)
		} else if spent != 0 {
			ms.retrySpent[u] = spent
		}
	}
	ms.queue = make(jobHeap, d.Count(1+4*8+5))
	for i := range ms.queue {
		q := &queuedJob{}
		ms.queue[i] = q
		q.h = ms.readHeldJob(d)
		q.submit = d.Float64()
		q.execSec = d.Float64()
		q.patience = d.Float64()
		q.priority = d.Float64()
		q.seq = d.Varint()
		q.id = d.Varint()
		q.user = d.String()
		q.attempt = d.Int()
		q.pendingAtSubmit = d.Int()
		if q.acct = ms.account(q.user); !q.acct.seen {
			d.Reject("queue entry for %q has no usage accumulator", q.user)
		}
	}
	ms.retries = make([]pendingRetry, d.Count(1+3*8+3))
	for i := range ms.retries {
		rt := &ms.retries[i]
		rt.h = ms.readHeldJob(d)
		rt.at = d.Float64()
		rt.execSec = d.Float64()
		rt.patience = d.Float64()
		rt.user = d.String()
		rt.id = d.Varint()
		rt.attempt = d.Int()
	}

	ms.jobs = make([]*trace.Job, d.Count(20))
	for i := range ms.jobs {
		ms.jobs[i] = trace.ReadJob(d)
	}
	ms.mstats = trace.ReadMachineStats(d)
	ms.waitRatios = make([]float64, d.Count(8))
	for i := range ms.waitRatios {
		ms.waitRatios[i] = d.Float64()
	}
	if err := d.Finish(); err != nil {
		return err
	}
	if draws < ms.rsrc.draws {
		return fmt.Errorf("RNG count %d behind construction's %d (corrupt snapshot?)", draws, ms.rsrc.draws)
	}
	for ms.rsrc.draws < draws {
		ms.rsrc.Uint64()
	}
	return nil
}

// faultFields lists p's fields in their checkpoint order, for the
// writer and the reader alike.
func faultFields(p *fault.Profile) [11]*float64 {
	return [...]*float64{
		&p.OutageMeanGapDays, &p.OutageMeanHours, &p.OutageMaxHours,
		&p.TransientErrorRate,
		&p.BurstMeanGapDays, &p.BurstMeanHours, &p.BurstErrorRate,
		&p.StaleMeanGapDays, &p.StaleMeanHours, &p.StaleErrorFactor,
		&p.SubmitErrorRate,
	}
}

// WriteCheckpoint writes ck as a checkpoint file: the magic, the
// version, and one journal frame around the checkpoint record. The
// file is sized before the record is encoded into it, behind room for
// the frame header, so the machine records are copied once.
func WriteCheckpoint(w io.Writer, ck *Checkpoint) error {
	// 256 bytes hold every fixed field at its widest.
	size := len(checkpointMagic) + 1 + journal.FrameHeaderLen + 256 +
		binary.MaxVarintLen64*(len(ck.JournalMachineRecords)+len(ck.machines))
	for _, m := range ck.machines {
		size += len(m)
	}
	file := append(make([]byte, 0, size), checkpointMagic...)
	file = append(file, checkpointVersion)
	frame := len(file)
	file = append(file, make([]byte, journal.FrameHeaderLen)...)
	file = binary.AppendVarint(file, ck.Seed)
	file = journal.AppendInstant(file, ck.Start)
	file = journal.AppendInstant(file, ck.End)
	file = journal.AppendBool(file, ck.Faults != nil)
	if ck.Faults != nil {
		for _, f := range faultFields(ck.Faults) {
			file = journal.AppendFloat64(file, *f)
		}
	}
	file = journal.AppendBool(file, ck.Retry != nil)
	if p := ck.Retry; p != nil {
		file = binary.AppendVarint(file, int64(p.MaxAttempts))
		file = binary.AppendVarint(file, int64(p.BaseBackoff))
		file = binary.AppendVarint(file, int64(p.MaxBackoff))
		file = journal.AppendFloat64(file, p.JitterFrac)
		file = binary.AppendVarint(file, int64(p.BudgetPerUser))
	}
	file = binary.AppendUvarint(file, uint64(len(ck.JournalMachineRecords)))
	for _, n := range ck.JournalMachineRecords {
		file = binary.AppendVarint(file, n)
	}
	file = binary.AppendVarint(file, ck.JournalSubmits)
	file = binary.AppendVarint(file, ck.JournalSeq)
	file = journal.AppendInstant(file, ck.JournalNextCkpt)
	file = binary.AppendUvarint(file, uint64(len(ck.machines)))
	for _, m := range ck.machines {
		file = journal.AppendBytes(file, m)
	}
	if n := len(file) - frame - journal.FrameHeaderLen; uint64(n) > math.MaxUint32 {
		return fmt.Errorf("cloud: checkpoint record of %d bytes exceeds a frame's 32-bit length", n)
	}
	journal.SealFrame(file[frame:])
	if _, err := w.Write(file); err != nil {
		return fmt.Errorf("cloud: write checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint reads a checkpoint file. Any version but this one is
// refused by its number; a torn or bit-flipped file fails the frame
// checksum before a field is read. The machine records are only
// delimited here: Restore reads them, into the machines.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	file, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cloud: read checkpoint: %w", err)
	}
	return decodeCheckpoint(file)
}

// decodeCheckpoint decodes a whole checkpoint file in place: the
// machine records it delimits are slices of file.
func decodeCheckpoint(file []byte) (*Checkpoint, error) {
	if len(file) <= len(checkpointMagic) || string(file[:len(checkpointMagic)]) != checkpointMagic {
		return nil, fmt.Errorf("cloud: not a checkpoint file (no %q header)", checkpointMagic)
	}
	if v := file[len(checkpointMagic)]; v != checkpointVersion {
		return nil, fmt.Errorf("cloud: checkpoint version %d not supported (this build reads version %d only)", v, checkpointVersion)
	}
	rec, err := journal.Frame(file[len(checkpointMagic)+1:])
	if err != nil {
		return nil, fmt.Errorf("cloud: checkpoint: %w", err)
	}
	d := journal.NewRecordReader(rec)
	ck := &Checkpoint{}
	ck.Seed = d.Varint()
	ck.Start = d.Instant()
	ck.End = d.Instant()
	if d.Bool() {
		ck.Faults = &fault.Profile{}
		for _, f := range faultFields(ck.Faults) {
			*f = d.Float64()
		}
	}
	if d.Bool() {
		p := &RetryPolicy{}
		p.MaxAttempts = d.Int()
		p.BaseBackoff = time.Duration(d.Varint())
		p.MaxBackoff = time.Duration(d.Varint())
		p.JitterFrac = d.Float64()
		p.BudgetPerUser = d.Int()
		ck.Retry = p
	}
	ck.JournalMachineRecords = make([]int64, d.Count(1))
	for i := range ck.JournalMachineRecords {
		ck.JournalMachineRecords[i] = d.Varint()
	}
	ck.JournalSubmits = d.Varint()
	ck.JournalSeq = d.Varint()
	ck.JournalNextCkpt = d.Instant()
	ck.machines = make([][]byte, d.Count(1))
	for i := range ck.machines {
		ck.machines[i] = d.Bytes()
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("cloud: checkpoint record: %w", err)
	}
	return ck, nil
}
