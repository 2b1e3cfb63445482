package cloud

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"qcloud/internal/fault"
	"qcloud/internal/journal"
	"qcloud/internal/trace"
)

// jtConfig is the journal-test scenario: two machines, the short test
// window, and the full fault/retry stack so recovery must reproduce
// outages, transient kills, retries and flaky submits — not just the
// happy path.
func jtConfig(seed int64, workers int) Config {
	cfg := testConfig(seed, "ibmq_athens", "ibmq_rome")
	cfg.Workers = workers
	cfg.Faults = &fault.Profile{
		OutageMeanGapDays:  6,
		OutageMeanHours:    8,
		OutageMaxHours:     36,
		TransientErrorRate: 0.08,
		SubmitErrorRate:    0.02,
	}
	cfg.Retry = &RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 2 * time.Minute,
		MaxBackoff:  45 * time.Minute,
		JitterFrac:  0.3,
	}
	return cfg
}

func jtSpecs() []*JobSpec {
	a := makeSpecs("ibmq_athens", 60, 5*time.Hour)
	b := makeSpecs("ibmq_rome", 60, 7*time.Hour)
	var specs []*JobSpec
	for i := range a {
		specs = append(specs, a[i], b[i])
	}
	return specs
}

func jtJSON(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// jtGolden is the uninterrupted in-memory trace every journaled and
// recovered variant must reproduce byte-for-byte.
func jtGolden(t *testing.T, workers int) []byte {
	t.Helper()
	tr, err := Simulate(jtConfig(3, workers), jtSpecs())
	if err != nil {
		t.Fatal(err)
	}
	return jtJSON(t, tr)
}

// runJournaled opens a journaled session, submits the spec stream and
// runs it, tolerating a deterministic kill at any point: it returns
// the trace (nil if the run was killed) and whether the kill fired.
func runJournaled(t *testing.T, cfg Config, specs []*JobSpec) (*trace.Trace, bool) {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if _, err := s.SubmitRetried(sp, 0); err != nil {
			if errors.Is(err, errJournalKilled) {
				s.Close()
				return nil, true
			}
			t.Fatal(err)
		}
	}
	tr, err := s.Run()
	if err != nil {
		if errors.Is(err, errJournalKilled) {
			s.Close()
			return nil, true
		}
		t.Fatal(err)
	}
	return tr, false
}

// recoverAndFinish resumes a killed journal directory: recover, submit
// whatever suffix of the deterministic spec stream the input log has
// not yet accepted, and run to completion.
func recoverAndFinish(t *testing.T, cfg Config, specs []*JobSpec) *trace.Trace {
	t.Helper()
	s, err := Recover(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs[s.JournaledSubmits():] {
		if _, err := s.SubmitRetried(sp, 0); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestJournaledRunMatchesInMemory pins the tentpole's baseline: a
// journaled session's trace — streamed to disk, then read back — is
// byte-identical to the in-memory run, at serial and parallel worker
// counts, and the session holds no trace records in memory while it
// runs.
func TestJournaledRunMatchesInMemory(t *testing.T) {
	for _, workers := range []int{1, 4} {
		golden := jtGolden(t, workers)
		cfg := jtConfig(3, workers)
		cfg.Journal = &JournalConfig{Dir: t.TempDir(), CheckpointEvery: 4 * 24 * time.Hour}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var handles []*JobHandle
		for _, sp := range jtSpecs() {
			h, err := s.SubmitRetried(sp, 0)
			if err != nil {
				t.Fatal(err)
			}
			handles = append(handles, h)
		}
		s.AdvanceTo(cfg.Start.Add(10 * 24 * time.Hour))
		if n := s.HeldTraceEntries(); n != 0 {
			t.Fatalf("workers=%d: journaled session holds %d trace entries mid-run, want 0", workers, n)
		}
		tr, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		for i, h := range handles {
			if !h.recorded || h.Record() != nil {
				t.Fatalf("workers=%d: handle %d recorded %v with record %v, want recorded and no record held", workers, i, h.recorded, h.Record())
			}
		}
		if !bytes.Equal(jtJSON(t, tr), golden) {
			t.Fatalf("workers=%d: journaled trace differs from in-memory trace", workers)
		}
		// The sealed journal reads back identically a second time.
		tr2, err := ReadJournalTrace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(jtJSON(t, tr2), golden) {
			t.Fatalf("workers=%d: ReadJournalTrace differs from in-memory trace", workers)
		}
	}
}

// TestReadJournalTraceAcrossWorkers pins the concurrent read-back: one
// sealed journal of a five-machine fleet reads back, at 1, 2 and 8
// workers, to the in-memory trace's bytes; and with two streams left
// unsealed, every worker count fails naming the earlier of the two in
// fleet order.
func TestReadJournalTraceAcrossWorkers(t *testing.T) {
	fleetCfg := func(workers int) Config {
		cfg := jtConfig(3, workers)
		cfg.Machines = testConfig(3, "ibmq_athens", "ibmq_rome", "ibmq_bogota", "ibmq_casablanca", "ibmq_lima").Machines
		return cfg
	}
	mem, err := Simulate(fleetCfg(1), jtSpecs())
	if err != nil {
		t.Fatal(err)
	}
	golden := jtJSON(t, mem)
	cfg := fleetCfg(1)
	cfg.Journal = &JournalConfig{Dir: t.TempDir(), CheckpointEvery: 4 * 24 * time.Hour}
	if _, killed := runJournaled(t, cfg, jtSpecs()); killed {
		t.Fatal("an unkilled run reported a kill")
	}
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		tr, err := ReadJournalTrace(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !bytes.Equal(jtJSON(t, tr), golden) {
			t.Fatalf("workers=%d: ReadJournalTrace differs from the in-memory trace", workers)
		}
	}

	// Cut the seal marker, the last frame, off two streams: the later
	// one first, so a reader that reported whichever failure it met
	// first would have a chance to name it.
	machines := cfg.withDefaults().Machines
	seal := journal.AppendFrame(nil, []byte{jrecEnd})
	for _, m := range []string{machines[3].Name, machines[1].Name} {
		segs, err := filepath.Glob(filepath.Join(machineStreamDir(cfg.Journal.Dir, m), "*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no segments for %s (err %v)", m, err)
		}
		last := segs[len(segs)-1]
		raw, err := os.ReadFile(last)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasSuffix(raw, seal) {
			t.Fatalf("%s does not end with the seal marker", last)
		}
		if err := os.WriteFile(last, raw[:len(raw)-len(seal)], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := "journal stream for " + machines[1].Name + " is not sealed"
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		if _, err := ReadJournalTrace(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("workers=%d: ReadJournalTrace of two unsealed streams: got %v, want %q", workers, err, want)
		}
	}
}

// TestCheckpointFilesIdenticalAcrossWorkers: the auto-checkpoints a
// drained session writes, encoded by its machines concurrently, are
// the same files at 1 and 4 workers, byte for byte.
func TestCheckpointFilesIdenticalAcrossWorkers(t *testing.T) {
	var want map[string][]byte
	for _, workers := range []int{1, 4} {
		cfg := jtConfig(3, workers)
		cfg.Journal = &JournalConfig{Dir: t.TempDir(), CheckpointEvery: 4 * 24 * time.Hour}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range jtSpecs() {
			if _, err := s.SubmitRetried(sp, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.DrainJournal(); err != nil {
			t.Fatal(err)
		}
		paths, err := filepath.Glob(filepath.Join(cfg.Journal.Dir, "ckpt-*.qcsn"))
		if err != nil || len(paths) < 2 {
			t.Fatalf("workers=%d: want >=2 checkpoint files, got %d (err %v)", workers, len(paths), err)
		}
		got := map[string][]byte{}
		for _, p := range paths {
			if got[filepath.Base(p)], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		if want == nil {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d checkpoint files, the serial run wrote %d", workers, len(got), len(want))
		}
		for name, b := range want {
			if !bytes.Equal(got[name], b) {
				t.Fatalf("workers=%d: %s differs from the serial run's (%d vs %d bytes)", workers, name, len(got[name]), len(b))
			}
		}
	}
}

// journalRecordTotal measures how many journal appends a full
// uninterrupted run performs, so kill points can cover the whole run.
func journalRecordTotal(t *testing.T, workers int) int64 {
	t.Helper()
	cfg := jtConfig(3, workers)
	cfg.Journal = &JournalConfig{Dir: t.TempDir(), CheckpointEvery: 4 * 24 * time.Hour}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range jtSpecs() {
		if _, err := s.SubmitRetried(sp, 0); err != nil {
			t.Fatal(err)
		}
	}
	st, err := s.DrainJournal()
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoints == 0 || st.JobRecords == 0 {
		t.Fatalf("drain stats look wrong: %+v", st)
	}
	return st.Records
}

// TestKillAnywhereRecoversByteIdentical is the tentpole contract: a
// session killed deterministically after ANY number of journal appends
// — during submission, mid-window, mid-checkpoint interval, or during
// the final drain — recovers to a finished trace byte-identical to the
// uninterrupted run.
func TestKillAnywhereRecoversByteIdentical(t *testing.T) {
	golden := jtGolden(t, 1)
	total := journalRecordTotal(t, 1)
	// Kill points: the first few appends (crash during submission), a
	// spread across the run, and the last appends (crash during seal).
	points := []int64{1, 2, 3, 5, total - 2, total - 1}
	for i := int64(1); i <= 10; i++ {
		points = append(points, i*total/11)
	}
	for _, kill := range points {
		if kill <= 0 || kill >= total {
			continue
		}
		dir := t.TempDir()
		cfg := jtConfig(3, 1)
		cfg.Journal = &JournalConfig{Dir: dir, CheckpointEvery: 4 * 24 * time.Hour, killAfterRecords: kill}
		_, killed := runJournaled(t, cfg, jtSpecs())
		if !killed {
			t.Fatalf("kill point %d/%d did not fire", kill, total)
		}
		cfg.Journal = &JournalConfig{Dir: dir, CheckpointEvery: 4 * 24 * time.Hour}
		tr := recoverAndFinish(t, cfg, jtSpecs())
		if !bytes.Equal(jtJSON(t, tr), golden) {
			t.Fatalf("kill point %d/%d: recovered trace differs from uninterrupted run", kill, total)
		}
	}
}

// TestKillParallelRecoversByteIdentical reruns the crash-recovery
// contract at four workers: the kill lands nondeterministically across
// machine goroutines, but recovery must still reproduce the golden
// trace exactly.
func TestKillParallelRecoversByteIdentical(t *testing.T) {
	golden := jtGolden(t, 4)
	total := journalRecordTotal(t, 4)
	for _, kill := range []int64{total / 5, total / 2, 4 * total / 5} {
		dir := t.TempDir()
		cfg := jtConfig(3, 4)
		cfg.Journal = &JournalConfig{Dir: dir, CheckpointEvery: 4 * 24 * time.Hour, killAfterRecords: kill}
		_, killed := runJournaled(t, cfg, jtSpecs())
		if !killed {
			t.Fatalf("kill point %d/%d did not fire", kill, total)
		}
		cfg.Journal = &JournalConfig{Dir: dir, CheckpointEvery: 4 * 24 * time.Hour}
		tr := recoverAndFinish(t, cfg, jtSpecs())
		if !bytes.Equal(jtJSON(t, tr), golden) {
			t.Fatalf("kill point %d/%d (4 workers): recovered trace differs", kill, total)
		}
	}
}

// TestRecoverSurvivesCorruptNewestCheckpoint: recovery falls back to
// an older checkpoint (or a fresh replay) when the newest one is
// bit-flipped, and still finishes byte-identical.
func TestRecoverSurvivesCorruptNewestCheckpoint(t *testing.T) {
	golden := jtGolden(t, 1)
	total := journalRecordTotal(t, 1)
	dir := t.TempDir()
	cfg := jtConfig(3, 1)
	cfg.Journal = &JournalConfig{Dir: dir, CheckpointEvery: 4 * 24 * time.Hour, killAfterRecords: 4 * total / 5}
	if _, killed := runJournaled(t, cfg, jtSpecs()); !killed {
		t.Fatal("kill did not fire")
	}
	seqs, err := listCheckpointSeqs(dir)
	if err != nil || len(seqs) < 2 {
		t.Fatalf("want >=2 checkpoints on disk, got %d (err %v)", len(seqs), err)
	}
	// Flip one byte in the middle of the newest checkpoint's payload.
	path := ckptFilePath(dir, seqs[len(seqs)-1])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.Journal = &JournalConfig{Dir: dir, CheckpointEvery: 4 * 24 * time.Hour}
	tr := recoverAndFinish(t, cfg, jtSpecs())
	if !bytes.Equal(jtJSON(t, tr), golden) {
		t.Fatal("recovered trace differs after corrupt-checkpoint fallback")
	}
}

// TestRecoverSurvivesTornMachineJournal: machine-stream records behind
// the checkpoint regenerate deterministically, so a torn machine
// journal tail (beyond the newest checkpoint) cannot prevent an exact
// recovery.
func TestRecoverSurvivesTornMachineJournal(t *testing.T) {
	golden := jtGolden(t, 1)
	total := journalRecordTotal(t, 1)
	dir := t.TempDir()
	cfg := jtConfig(3, 1)
	cfg.Journal = &JournalConfig{Dir: dir, CheckpointEvery: 4 * 24 * time.Hour, killAfterRecords: 3 * total / 4}
	if _, killed := runJournaled(t, cfg, jtSpecs()); !killed {
		t.Fatal("kill did not fire")
	}
	// Tear bytes off the final segment of the first machine's stream.
	mdir := machineStreamDir(dir, "ibmq_athens")
	segs, err := filepath.Glob(filepath.Join(mdir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err %v)", mdir, err)
	}
	last := segs[len(segs)-1]
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 11 {
		if err := os.WriteFile(last, raw[:len(raw)-11], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Journal = &JournalConfig{Dir: dir, CheckpointEvery: 4 * 24 * time.Hour}
	tr := recoverAndFinish(t, cfg, jtSpecs())
	if !bytes.Equal(jtJSON(t, tr), golden) {
		t.Fatal("recovered trace differs after torn machine journal")
	}
}

// TestJournalMisuseErrors pins the guard rails: reading an unsealed
// journal, opening over an existing one, restoring with a journal
// config, and recovering a non-journal directory all fail loudly.
func TestJournalMisuseErrors(t *testing.T) {
	dir := t.TempDir()
	cfg := jtConfig(3, 1)
	cfg.Journal = &JournalConfig{Dir: dir, CheckpointEvery: 4 * 24 * time.Hour, killAfterRecords: 40}
	if _, killed := runJournaled(t, cfg, jtSpecs()); !killed {
		t.Fatal("kill did not fire")
	}
	cfg.Journal = &JournalConfig{Dir: dir}
	if _, err := ReadJournalTrace(cfg); err == nil || !strings.Contains(err.Error(), "Recover") {
		t.Fatalf("unsealed journal read: %v", err)
	}
	if _, err := Open(cfg); err == nil || !strings.Contains(err.Error(), "Recover") {
		t.Fatalf("open over existing journal: %v", err)
	}
	if _, err := Restore(cfg, &Checkpoint{}); err == nil || !strings.Contains(err.Error(), "Recover") {
		t.Fatalf("restore with journal config: %v", err)
	}
	empty := jtConfig(3, 1)
	empty.Journal = &JournalConfig{Dir: t.TempDir()}
	if _, err := Recover(empty); err == nil || !strings.Contains(err.Error(), "not a session journal") {
		t.Fatalf("recover of non-journal dir: %v", err)
	}
}

// flakyFile fails every write once its countdown of successes runs
// out — a persistent filesystem failure.
type flakyFile struct {
	f         journal.File
	successes int
}

func (ff *flakyFile) Write(p []byte) (int, error) {
	if ff.successes <= 0 {
		return 0, errors.New("injected disk failure")
	}
	ff.successes--
	return ff.f.Write(p)
}
func (ff *flakyFile) Sync() error  { return ff.f.Sync() }
func (ff *flakyFile) Close() error { return ff.f.Close() }

// countedFile counts the segment files a journal closes.
type countedFile struct {
	journal.File
	closes *int
}

func (cf countedFile) Close() error {
	*cf.closes++
	return cf.File.Close()
}

// TestJournalErrorPathsCloseSegments: an Open whose machine stream
// cannot be created, a Recover whose machine stream cannot be
// reopened, and a Recover whose input log replay fails each return an
// error with every segment file they opened closed again.
func TestJournalErrorPathsCloseSegments(t *testing.T) {
	killed := func(t *testing.T) string {
		dir := t.TempDir()
		cfg := jtConfig(3, 1)
		cfg.Journal = &JournalConfig{Dir: dir, CheckpointEvery: 4 * 24 * time.Hour, killAfterRecords: 200}
		if _, killed := runJournaled(t, cfg, jtSpecs()); !killed {
			t.Fatal("kill did not fire")
		}
		return dir
	}
	// run calls f with a journal whose segment opens are counted and
	// fail under a stream directory named failDir, and checks the error
	// and that every opened file was closed.
	run := func(t *testing.T, dir, failDir string, f func(Config) (*Session, error), wantErr string) {
		opens, closes := 0, 0
		cfg := jtConfig(3, 1)
		cfg.Journal = &JournalConfig{Dir: dir, CheckpointEvery: 4 * 24 * time.Hour,
			openFile: func(path string) (journal.File, error) {
				if filepath.Base(filepath.Dir(path)) == failDir {
					return nil, errors.New("injected open failure")
				}
				f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return nil, err
				}
				opens++
				return countedFile{f, &closes}, nil
			}}
		if _, err := f(cfg); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("got error %v, want one naming %q", err, wantErr)
		}
		if opens == 0 || closes != opens {
			t.Fatalf("%d segment files opened, %d closed", opens, closes)
		}
	}
	t.Run("open", func(t *testing.T) {
		run(t, t.TempDir(), "m_ibmq_rome", Open, "injected open failure")
	})
	t.Run("recover reopen", func(t *testing.T) {
		run(t, killed(t), "m_ibmq_rome", Recover, "injected open failure")
	})
	t.Run("recover replay", func(t *testing.T) {
		dir := killed(t)
		segs, err := filepath.Glob(filepath.Join(submitStreamDir(dir), "*.seg"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("no input log segments (err %v)", err)
		}
		f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Write(journal.AppendFrame(nil, appendSubmitRecord(nil, "ibmq_nowhere", 1, jtSpecs()[0])))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		run(t, dir, "", Recover, `unknown machine "ibmq_nowhere"`)
	})
}

// TestPersistentWriteFailureFailStops: when journal writes keep
// failing past the retry cap, the session fail-stops with a clear
// error instead of silently continuing undurable.
func TestPersistentWriteFailureFailStops(t *testing.T) {
	cfg := jtConfig(3, 1)
	budget := 25
	cfg.Journal = &JournalConfig{
		Dir:             t.TempDir(),
		CheckpointEvery: 4 * 24 * time.Hour,
		openFile: func(path string) (journal.File, error) {
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			ff := &flakyFile{f: f, successes: budget}
			budget = 0 // only the first segments get any successes
			return ff, nil
		},
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var failed error
	for _, sp := range jtSpecs() {
		if _, err := s.SubmitRetried(sp, 0); err != nil {
			failed = err
			break
		}
	}
	if failed == nil {
		_, failed = s.Run()
	}
	s.Close()
	if failed == nil || !strings.Contains(failed.Error(), "fail-stopped") {
		t.Fatalf("persistent write failure surfaced as %v, want fail-stopped error", failed)
	}
}

// TestJournaledSessionRefusesCancel: the input log records submissions
// only, so Recover could not replay a cancel made after the newest
// checkpoint. A journaled session refuses Cancel and CancelWithReason
// alike, and the job stays as it was.
func TestJournaledSessionRefusesCancel(t *testing.T) {
	cfg := jtConfig(3, 1)
	cfg.Journal = &JournalConfig{Dir: t.TempDir()}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, err := s.SubmitRetried(jtSpecs()[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range []error{s.Cancel(h), s.CancelWithReason(h, CancelPreempted)} {
		if err == nil || !strings.Contains(err.Error(), "journaled session cannot cancel") {
			t.Errorf("cancel %d on a journaled session: error %v", i, err)
		}
	}
	if st, err := s.JobStatus(h); st != JobStatePending || err != nil {
		t.Fatalf("job is %s (err %v) after the refused cancels, want pending", st, err)
	}
}
