package cloud

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qcloud/internal/journal"
	"qcloud/internal/par"
	"qcloud/internal/trace"
)

// JournalConfig turns on the session's durable journaling mode: every
// finished job record streams into an append-only journal directory
// instead of accumulating in memory, and the session auto-checkpoints
// itself every CheckpointEvery of simulated time. A run killed at any
// point is resumed with Recover, which loads the newest valid
// checkpoint, replays the input log's suffix, and continues to a trace
// byte-identical to an uninterrupted run.
//
// Layout of Dir: one journal stream per machine (m_<name>/), the
// session input log (submits/), and checkpoint files (ckpt-NNNNNNNN.qcsn).
type JournalConfig struct {
	// Dir is the journal directory. Open requires its streams to be
	// empty (a fresh run); Recover requires them to exist.
	Dir string
	// CheckpointEvery is the auto-checkpoint cadence in simulated time
	// (default 30 days). Shorter cadence = less journal to re-simulate
	// after a crash, at the cost of more checkpoint writes.
	CheckpointEvery time.Duration

	// Test hooks (white-box): kill the session deterministically after
	// N journal appends, or intercept segment file opens with a faulty
	// writer.
	killAfterRecords int64
	openFile         func(path string) (journal.File, error)
}

func (jc *JournalConfig) withDefaults() *JournalConfig {
	q := *jc
	if q.CheckpointEvery <= 0 {
		q.CheckpointEvery = 30 * 24 * time.Hour
	}
	return &q
}

func (jc *JournalConfig) options() journal.Options {
	return journal.Options{OpenFile: jc.openFile}
}

// Journal record types: the first payload byte of every frame. Types 2
// and 4 were the gob stats frame and submission: no reader is kept and
// the numbers are not reused, so such a record is refused, not misread.
const (
	jrecJob     byte = 1 // machine stream: one trace.Job
	jrecEnd     byte = 3 // machine stream: seal marker — the run completed
	jrecSubmit2 byte = 5 // input log: one accepted study submission
	jrecStats2  byte = 6 // machine stream: the machine's final trace.MachineStats
)

// journalSubmit is one accepted study submission in the input log.
// SubmitSeq is the machine's submit-fault sequence after acceptance,
// so replay restores the deterministic rejection stream without
// re-deciding attempts that already happened.
type journalSubmit struct {
	Machine   string
	SubmitSeq int64
	Spec      JobSpec
}

// errJournalKilled reports a session halted by the deterministic
// in-process kill hook (crash-recovery tests only).
var errJournalKilled = errors.New("cloud: journal session killed by test hook")

func submitStreamDir(dir string) string { return filepath.Join(dir, "submits") }
func machineStreamDir(dir, name string) string {
	return filepath.Join(dir, "m_"+name)
}
func ckptFilePath(dir string, seq int64) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt-%08d.qcsn", seq))
}

// sessionJournal is the session's durable-journaling state: one writer
// per machine stream (owned by that machine's advance goroutine), the
// input log (owned by the driver goroutine), the auto-checkpoint
// cursor, and the halt latch that fail-stops every machine when a
// write outlives its retries (or the kill hook fires).
type sessionJournal struct {
	jc    *JournalConfig
	every time.Duration

	submits  *journal.Writer
	machines []*journal.Writer
	// subBuf is the reused input-log encode buffer; appendSubmit runs
	// only on the driver goroutine (Submit), so no lock is needed.
	subBuf []byte

	nextCkpt time.Time
	seq      int64
	ckpts    int

	// stop is the hot-path halt latch machines poll each event-loop
	// iteration; mu guards the cold fields behind it.
	stop      atomic.Bool
	killAfter int64
	appended  atomic.Int64

	mu       sync.Mutex
	err      error
	isKilled bool
	closed   bool
	closeErr error
}

// openSessionJournal creates fresh journal streams for a newly opened
// session. Existing streams are an error: resuming one is Recover's
// job, and silently appending to it would corrupt the record counts
// its checkpoints pin.
func openSessionJournal(s *Session, jc *JournalConfig) error {
	jr := &sessionJournal{jc: jc, every: jc.CheckpointEvery, killAfter: jc.killAfterRecords}
	opts := jc.options()
	var err error
	if jr.submits, err = journal.Create(submitStreamDir(jc.Dir), opts); err != nil {
		return fmt.Errorf("cloud: open journal (did you mean Recover?): %w", err)
	}
	jr.machines = make([]*journal.Writer, len(s.sims))
	for i, ms := range s.sims {
		if jr.machines[i], err = journal.Create(machineStreamDir(jc.Dir, ms.m.Name), opts); err != nil {
			jr.abandon()
			return fmt.Errorf("cloud: open journal (did you mean Recover?): %w", err)
		}
	}
	jr.nextCkpt = s.cfg.Start.Add(jr.every)
	s.jr = jr
	return nil
}

// append frames payload into w unless the session has halted. The kill
// hook counts every append across all streams, so crash points are
// deterministic for a serial session.
func (jr *sessionJournal) append(w *journal.Writer, payload []byte) {
	if jr.stop.Load() {
		return
	}
	if jr.killAfter > 0 && jr.appended.Add(1) > jr.killAfter {
		jr.kill()
		return
	}
	if err := w.Append(payload); err != nil {
		jr.fail(err)
	}
}

// abandon closes every writer opened so far without flushing: a
// halted session's, and a journal's that failed part-way through
// opening, whose session is never returned for anyone to close.
func (jr *sessionJournal) abandon() {
	for _, w := range append([]*journal.Writer{jr.submits}, jr.machines...) {
		if w != nil {
			w.Abandon()
		}
	}
}

func (jr *sessionJournal) kill() {
	jr.mu.Lock()
	jr.isKilled = true
	jr.mu.Unlock()
	jr.stop.Store(true)
}

// fail latches the first journal write error and halts the session:
// persistent write failures fail-stop rather than silently continuing
// undurable.
func (jr *sessionJournal) fail(err error) {
	jr.mu.Lock()
	if jr.err == nil {
		jr.err = fmt.Errorf("cloud: journal write failed; session is fail-stopped: %w", err)
	}
	jr.mu.Unlock()
	jr.stop.Store(true)
}

// haltErr reports why the session halted (nil while healthy).
func (jr *sessionJournal) haltErr() error {
	if !jr.stop.Load() {
		return nil
	}
	jr.mu.Lock()
	defer jr.mu.Unlock()
	if jr.err != nil {
		return jr.err
	}
	if jr.isKilled {
		return errJournalKilled
	}
	return nil
}

// appendSubmit records an accepted study submission in the input log
// and flushes it to the OS, so a process kill cannot lose a submission
// the caller saw accepted.
func (jr *sessionJournal) appendSubmit(ms *machineSim, spec *JobSpec) error {
	if err := jr.haltErr(); err != nil {
		return err
	}
	jr.subBuf = appendSubmitRecord(jr.subBuf[:0], ms.m.Name, ms.submitSeq, spec)
	jr.append(jr.submits, jr.subBuf)
	if err := jr.haltErr(); err != nil {
		return err
	}
	if err := jr.submits.Flush(); err != nil {
		jr.fail(err)
		return jr.haltErr()
	}
	return nil
}

// appendJob records a finished job in ms's machine stream (replacing
// the in-memory ms.jobs append of plain sessions).
func (jr *sessionJournal) appendJob(ms *machineSim, j *trace.Job) {
	ms.jbuf = append(ms.jbuf[:0], jrecJob)
	ms.jbuf = trace.AppendJob(ms.jbuf, j)
	jr.append(jr.machines[ms.idx], ms.jbuf)
}

// close seals every stream. After a halt the writers are abandoned
// instead — buffered frames are dropped exactly as the crash being
// modeled would drop them.
func (jr *sessionJournal) close() error {
	jr.mu.Lock()
	if jr.closed {
		defer jr.mu.Unlock()
		return jr.closeErr
	}
	jr.closed = true
	jr.mu.Unlock()
	if jr.stop.Load() {
		jr.abandon()
		err := jr.haltErr()
		jr.mu.Lock()
		jr.closeErr = err
		jr.mu.Unlock()
		return err
	}
	var first error
	for _, w := range append([]*journal.Writer{jr.submits}, jr.machines...) {
		if err := w.Close(); err != nil && first == nil {
			first = err
		}
	}
	jr.mu.Lock()
	jr.closeErr = first
	jr.mu.Unlock()
	return first
}

// journalAfterAdvance runs on the driver goroutine after every
// AdvanceTo: flush machine streams (so an OS-surviving kill keeps all
// records emitted so far) and write the auto-checkpoint when the
// frontier crosses the cadence. Errors latch into the halt state and
// surface on the next Submit/Checkpoint/Run/DrainJournal call.
func (s *Session) journalAfterAdvance(t time.Time) {
	jr := s.jr
	if jr.stop.Load() {
		return
	}
	for _, w := range jr.machines {
		if err := w.Flush(); err != nil {
			jr.fail(err)
			return
		}
	}
	if jr.nextCkpt.After(t) {
		return
	}
	next := jr.nextCkpt
	for !next.After(t) {
		next = next.Add(jr.every)
	}
	if err := s.writeJournalCheckpoint(next); err != nil {
		jr.fail(err)
		return
	}
	jr.nextCkpt = next
}

// writeJournalCheckpoint persists a checkpoint pinned to the journal
// streams' current record counts. Streams are fsynced first: a
// checkpoint is only usable if the journals durably hold at least the
// counts it records, so the sync order is journals before checkpoint.
func (s *Session) writeJournalCheckpoint(nextCkpt time.Time) error {
	jr := s.jr
	for _, w := range jr.machines {
		if err := w.Sync(); err != nil {
			return err
		}
	}
	if err := jr.submits.Sync(); err != nil {
		return err
	}
	ck, err := s.Checkpoint()
	if err != nil {
		return err
	}
	ck.JournalMachineRecords = make([]int64, len(jr.machines))
	for i, w := range jr.machines {
		ck.JournalMachineRecords[i] = w.Records()
	}
	ck.JournalSubmits = jr.submits.Records()
	jr.seq++
	ck.JournalSeq = jr.seq
	ck.JournalNextCkpt = nextCkpt
	path := ckptFilePath(jr.jc.Dir, jr.seq)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteCheckpoint(f, ck); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	jr.ckpts++
	return nil
}

// JournalStats summarizes a drained journaled session.
type JournalStats struct {
	// Records and Bytes count frames across every stream (jobs, stats
	// and seal markers, plus the input log).
	Records int64
	Bytes   int64
	// JobRecords counts finished-job frames alone.
	JobRecords int64
	// Checkpoints is the number of auto-checkpoints written.
	Checkpoints int
}

// HeldTraceEntries reports how many finished trace records the session
// currently retains in memory — the journaled-session RSS proxy. A
// journal-mode session streams records to disk and holds none; a plain
// session holds one per finished study job.
func (s *Session) HeldTraceEntries() int {
	n := 0
	for _, ms := range s.sims {
		n += len(ms.jobs)
	}
	return n
}

// DrainJournal runs a journaled session to completion — stepping the
// fleet at the checkpoint cadence, finalizing, and sealing every
// stream — without materializing the trace in memory. This is the
// constant-memory path for million-job sessions: Stats holds the
// lifecycle counts once DrainJournal returns, and ReadJournalTrace
// reads the trace back later if needed. The session is closed when it
// returns.
func (s *Session) DrainJournal() (JournalStats, error) {
	if s.closed {
		return JournalStats{}, ErrSessionClosed
	}
	if s.jr == nil {
		return JournalStats{}, errors.New("cloud: DrainJournal on a session without a journal (set Config.Journal)")
	}
	st, err := s.drainJournal()
	s.Close()
	return st, err
}

func (s *Session) drainJournal() (JournalStats, error) {
	jr := s.jr
	for jr.nextCkpt.Before(s.cfg.End) && !jr.stop.Load() {
		s.AdvanceTo(jr.nextCkpt)
	}
	if err := jr.haltErr(); err != nil {
		jr.close()
		return JournalStats{}, err
	}
	s.forEachSim((*machineSim).finalize)
	if err := jr.haltErr(); err != nil {
		jr.close()
		return JournalStats{}, err
	}
	// Seal each machine stream: final stats, then the end marker. Both
	// appended from the driver goroutine — the machines are done.
	for i, ms := range s.sims {
		jr.append(jr.machines[i], trace.AppendMachineStats([]byte{jrecStats2}, ms.mstats))
		jr.append(jr.machines[i], []byte{jrecEnd})
	}
	if err := jr.haltErr(); err != nil {
		jr.close()
		return JournalStats{}, err
	}
	var st JournalStats
	for _, w := range append([]*journal.Writer{jr.submits}, jr.machines...) {
		st.Records += w.Records()
		st.Bytes += w.Bytes()
	}
	st.JobRecords = st.Records - jr.submits.Records() - 2*int64(len(jr.machines))
	st.Checkpoints = jr.ckpts
	if err := jr.close(); err != nil {
		return st, err
	}
	return st, nil
}

// JournaledSubmits returns how many accepted study submissions the
// input log holds (replayed ones included, after Recover). A driver
// resuming a deterministic submission stream skips this many specs and
// submits the rest.
func (s *Session) JournaledSubmits() int64 {
	if s.jr == nil {
		return 0
	}
	return s.jr.submits.Records()
}

// Recover reopens a crashed (or interrupted) journaled session from
// its journal directory: it picks the newest checkpoint whose pinned
// record counts the streams can still satisfy, restores it, truncates
// each machine stream back to exactly the checkpoint's counts (those
// records regenerate deterministically), replays the input log's
// accepted submissions past the checkpoint, and resumes. With no
// usable checkpoint it restarts from the window start, replaying every
// accepted submission. Either way the finished trace is byte-identical
// to an uninterrupted run.
//
// cfg must be the original run's config with Journal.Dir set to the
// journal directory.
func Recover(cfg Config) (*Session, error) {
	if cfg.Journal == nil || cfg.Journal.Dir == "" {
		return nil, errors.New("cloud: Recover needs Config.Journal.Dir")
	}
	c := cfg.withDefaults()
	jc := c.Journal.withDefaults()
	if _, err := os.Stat(submitStreamDir(jc.Dir)); err != nil {
		return nil, fmt.Errorf("cloud: %s is not a session journal (no input log): %w", jc.Dir, err)
	}
	subScan, err := journal.Scan(submitStreamDir(jc.Dir))
	if err != nil {
		return nil, err
	}
	// The machine streams are scanned concurrently, each into its own
	// slot; the first error in fleet order is the one reported.
	mScans := make([]journal.ScanResult, len(c.Machines))
	errs := make([]error, len(c.Machines))
	par.ForEach(len(c.Machines), c.Workers, func(i int) {
		mScans[i], errs[i] = journal.Scan(machineStreamDir(jc.Dir, c.Machines[i].Name))
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	chosen, chosenSeq, err := pickCheckpoint(c, jc.Dir, subScan, mScans)
	if err != nil {
		return nil, err
	}
	// Build the restored session with journaling detached, then attach
	// resumed writers (Open with a Journal config creates fresh
	// streams, which is exactly wrong here).
	base := c
	base.Journal = nil
	var s *Session
	if chosen != nil {
		s, err = Restore(base, chosen)
	} else {
		s, err = Open(base)
	}
	if err != nil {
		return nil, err
	}
	s.cfg.Journal = jc
	// Checkpoints newer than the chosen one are unusable (invalid, or
	// ahead of what the streams hold); the resumed run re-numbers from
	// the chosen sequence.
	if err := removeCheckpointsAfter(jc.Dir, chosenSeq); err != nil {
		return nil, err
	}
	jr := &sessionJournal{jc: jc, every: jc.CheckpointEvery, killAfter: jc.killAfterRecords}
	opts := jc.options()
	if jr.submits, err = journal.OpenAt(submitStreamDir(jc.Dir), subScan, subScan.Records, opts); err != nil {
		return nil, err
	}
	jr.machines = make([]*journal.Writer, len(s.sims))
	for i, ms := range s.sims {
		var at int64
		if chosen != nil {
			at = chosen.JournalMachineRecords[i]
		}
		if jr.machines[i], err = journal.OpenAt(machineStreamDir(jc.Dir, ms.m.Name), mScans[i], at, opts); err != nil {
			jr.abandon()
			return nil, err
		}
	}
	jr.seq = chosenSeq
	if chosen != nil {
		jr.nextCkpt = chosen.JournalNextCkpt
	} else {
		jr.nextCkpt = s.cfg.Start.Add(jr.every)
	}
	s.jr = jr
	// Replay the input log's suffix: accepted submissions after the
	// checkpoint re-enter exactly as first accepted (the recorded
	// submit-fault sequence bypasses re-deciding their attempts). The
	// replay resumes from the scan, so the records before the
	// checkpoint are not read a second time.
	var from int64
	if chosen != nil {
		from = chosen.JournalSubmits
	}
	err = journal.Replay(submitStreamDir(jc.Dir), subScan, from, func(rec int64, payload []byte) error {
		js, err := decodeSubmitRecord(payload)
		if err != nil {
			return fmt.Errorf("cloud: input log record %d: %w", rec, err)
		}
		ms := s.sim(js.Machine)
		if ms == nil {
			return fmt.Errorf("cloud: input log record %d targets unknown machine %q", rec, js.Machine)
		}
		return ms.resubmitJournaled(&js.Spec, js.SubmitSeq)
	})
	if err != nil {
		jr.abandon()
		return nil, err
	}
	return s, nil
}

// pickCheckpoint returns the newest on-disk checkpoint that validates
// (config identity, checksum) and whose pinned counts the scanned
// streams satisfy — nil if none, meaning recovery restarts from the
// window start.
func pickCheckpoint(c Config, dir string, subScan journal.ScanResult, mScans []journal.ScanResult) (*Checkpoint, int64, error) {
	seqs, err := listCheckpointSeqs(dir)
	if err != nil {
		return nil, 0, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		ck, err := readCheckpointFile(ckptFilePath(dir, seqs[i]))
		if err != nil {
			continue // torn, corrupt or another version: fall back to an older one
		}
		if !checkpointUsable(c, ck, subScan, mScans) {
			continue
		}
		return ck, seqs[i], nil
	}
	return nil, 0, nil
}

func checkpointUsable(c Config, ck *Checkpoint, subScan journal.ScanResult, mScans []journal.ScanResult) bool {
	if c.Seed != ck.Seed || !c.Start.Equal(ck.Start) || !c.End.Equal(ck.End) {
		return false
	}
	if len(ck.JournalMachineRecords) != len(mScans) || ck.JournalSubmits > subScan.Records {
		return false
	}
	for i, n := range ck.JournalMachineRecords {
		if n > mScans[i].Records {
			return false
		}
	}
	return true
}

func listCheckpointSeqs(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []int64
	for _, e := range ents {
		name := e.Name()
		stem, ok := strings.CutPrefix(name, "ckpt-")
		if !ok {
			continue
		}
		stem, ok = strings.CutSuffix(stem, ".qcsn")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(stem, 10, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

func removeCheckpointsAfter(dir string, seq int64) error {
	seqs, err := listCheckpointSeqs(dir)
	if err != nil {
		return err
	}
	for _, n := range seqs {
		if n > seq {
			if err := os.Remove(ckptFilePath(dir, n)); err != nil {
				return err
			}
		}
	}
	return nil
}

// readCheckpointFile reads a checkpoint file once, at its size, and
// decodes it in place.
func readCheckpointFile(path string) (*Checkpoint, error) {
	file, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(file)
}

// ReadJournalTrace assembles the finished trace from a sealed journal
// directory and orders the jobs as Session.Run does, so the result is
// byte-identical to the in-memory trace. The machine streams are
// decoded and sorted concurrently (Config.Workers of them at a time),
// each into its own slot, and merged in fleet order; so the trace and
// the error are the same at any worker count. It fails on an unsealed
// stream — that journal belongs to a crashed run and needs Recover
// first — and when several streams fail, the error names the first in
// fleet order.
func ReadJournalTrace(cfg Config) (*trace.Trace, error) {
	c := cfg.withDefaults()
	if c.Journal == nil || c.Journal.Dir == "" {
		return nil, errors.New("cloud: ReadJournalTrace needs Config.Journal.Dir")
	}
	ord := newTraceOrder(len(c.Machines))
	stats := make([]*trace.MachineStats, len(c.Machines))
	errs := make([]error, len(c.Machines))
	par.ForEach(len(c.Machines), c.Workers, func(i int) {
		var jobs []*trace.Job
		if jobs, stats[i], errs[i] = readMachineStream(c.Journal.Dir, c.Machines[i].Name); errs[i] == nil {
			ord.sort(i, jobs)
		}
	})
	if err := par.FirstError(errs); err != nil {
		return nil, err
	}
	// Jobs is never nil here: a journal without jobs reads back as an
	// empty list, not as the nil one an empty Session.Run returns.
	return &trace.Trace{Jobs: ord.merge([]*trace.Job{}), Machines: stats}, nil
}

// readMachineStream decodes one machine's sealed stream: job* stats end.
func readMachineStream(root, name string) ([]*trace.Job, *trace.MachineStats, error) {
	var jobs []*trace.Job
	var dec trace.JobDecoder
	var mstats *trace.MachineStats
	sealed := false
	dir := machineStreamDir(root, name)
	_, err := journal.ForEach(dir, func(rec int64, payload []byte) error {
		switch {
		case len(payload) == 0:
			return fmt.Errorf("cloud: %s record %d is empty", dir, rec)
		case sealed:
			return fmt.Errorf("cloud: %s record %d lies past the seal marker", dir, rec)
		case mstats != nil && payload[0] != jrecEnd:
			return fmt.Errorf("cloud: %s record %d (type %d) follows the stats frame, which only the seal marker may", dir, rec, payload[0])
		}
		switch payload[0] {
		case jrecJob:
			j, err := dec.Decode(payload[1:])
			if err != nil {
				return fmt.Errorf("cloud: %s record %d: %w", dir, rec, err)
			}
			jobs = append(jobs, j)
		case jrecStats2:
			d := journal.NewRecordReader(payload[1:])
			mstats = trace.ReadMachineStats(d)
			if err := d.Finish(); err != nil {
				return fmt.Errorf("cloud: %s record %d: machine stats: %w", dir, rec, err)
			}
		case jrecEnd:
			if mstats == nil {
				return fmt.Errorf("cloud: %s record %d seals the stream before any stats frame", dir, rec)
			}
			sealed = true
		default:
			return fmt.Errorf("cloud: %s record %d has unknown type %d", dir, rec, payload[0])
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if !sealed {
		return nil, nil, fmt.Errorf("cloud: journal stream for %s is not sealed — the run did not complete (use Recover)", name)
	}
	return jobs, mstats, nil
}
