package cloud

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"qcloud/internal/journal"
)

// ckptScenario is the journal-test scenario shrunk until a checkpoint
// is a few KB (16 background users, not 1200) and made faultier, then
// advanced to an instant, just after ibmq_rome accepted a study job
// that the test withdraws again, at which every list of that machine's
// record is populated.
func ckptScenario(t testing.TB, workers int) (*Session, Config) {
	t.Helper()
	cfg := jtConfig(3, workers)
	cfg.Background = DefaultBackground()
	cfg.Background.Users = 16
	faults := *cfg.Faults
	faults.TransientErrorRate = 0.4
	cfg.Faults = &faults
	cfg.Retry.BudgetPerUser = 50
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var handles []*JobHandle
	for _, sp := range jtSpecs()[:20] {
		h, err := s.SubmitRetried(sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	s.AdvanceTo(cfg.Start.Add(38*time.Hour + 4*time.Second))
	for _, h := range handles {
		if st, _ := s.JobStatus(h); st == JobStateQueued {
			if err := s.Cancel(h); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s, cfg
}

func ckptFile(t testing.TB, ck *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointBytesIdenticalAcrossWorkers: the checkpoint file is a
// function of the frontier alone — sessions at 1, 2 and 8 workers,
// whose machines encode their records concurrently, write the same
// bytes — and reading one back re-writes those bytes.
func TestCheckpointBytesIdenticalAcrossWorkers(t *testing.T) {
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		s, _ := ckptScenario(t, workers)
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		got := ckptFile(t, ck)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("checkpoint at %d workers differs from the serial one (%d vs %d bytes)", workers, len(got), len(want))
		}
		back, err := ReadCheckpoint(bytes.NewReader(got))
		if err != nil {
			t.Fatal(err)
		}
		if again := ckptFile(t, back); !bytes.Equal(again, got) {
			t.Fatalf("workers=%d: write → read → write changed the file (%d vs %d bytes)", workers, len(again), len(got))
		}
	}
}

// TestCheckpointFileGolden pins the serial checkpoint file of
// ckptScenario: pending specs, queued study jobs withdrawn and not,
// pending retries and spent retry budgets, all written in their fixed
// order. A moved hash is a layout or state change, and the version
// byte must move with it.
func TestCheckpointFileGolden(t *testing.T) {
	s, _ := ckptScenario(t, 1)
	defer s.Close()
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	file := ckptFile(t, ck)
	const golden = "b86a83fe397465762f79585429ff3e5ede90b06ae720e847a526c3243694120b"
	if got := fmt.Sprintf("%x", sha256.Sum256(file)); got != golden {
		t.Fatalf("checkpoint file (%d bytes) hashes to %s, want %s", len(file), got, golden)
	}
}

// TestRestoreAcrossWorkersNamesFirstBadMachine: a checkpoint of a
// five-machine fleet restores, at 1, 2 and 8 workers, to a session that
// checkpoints to the same bytes; and with the records of machines 3 and
// 1 both cut short, every worker count fails naming machine 1, the
// first in fleet order.
func TestRestoreAcrossWorkersNamesFirstBadMachine(t *testing.T) {
	fleetCfg := func(workers int) Config {
		cfg := jtConfig(3, workers)
		cfg.Machines = testConfig(3, "ibmq_athens", "ibmq_rome", "ibmq_bogota", "ibmq_casablanca", "ibmq_lima").Machines
		return cfg
	}
	s, err := Open(fleetCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range jtSpecs() {
		if _, err := s.SubmitRetried(sp, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.AdvanceTo(s.cfg.Start.Add(5 * 24 * time.Hour))
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	want := ckptFile(t, ck)
	for _, workers := range []int{1, 2, 8} {
		r, err := Restore(fleetCfg(workers), ck)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		again, err := r.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
		if got := ckptFile(t, again); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: restored session checkpoints to %d bytes, the original %d, not the same", workers, len(got), len(want))
		}
	}

	bad := *ck
	bad.machines = slices.Clone(ck.machines)
	for _, i := range []int{3, 1} {
		bad.machines[i] = bad.machines[i][:len(bad.machines[i])/2]
	}
	name := fleetCfg(1).withDefaults().Machines[1].Name
	wantErr := fmt.Sprintf("restore machine 1 (%s)", name)
	for _, workers := range []int{1, 2, 8} {
		if _, err := Restore(fleetCfg(workers), &bad); err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("workers=%d: restore of two cut records: got %v, want %q", workers, err, wantErr)
		}
	}
}

// TestRestoreHoldsOnlyLiveJobs: a checkpoint carries no finished study
// job, so every handle a restored machine's spec list holds is pending
// and none is recorded, though jobs were recorded before the checkpoint.
func TestRestoreHoldsOnlyLiveJobs(t *testing.T) {
	cfg := jtConfig(3, 1)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range jtSpecs() {
		if _, err := s.SubmitRetried(sp, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.AdvanceTo(cfg.Start.Add(5 * 24 * time.Hour))
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	recorded := 0
	for _, ms := range s.sims {
		recorded += len(ms.jobs)
	}
	s.Close()
	r, err := Restore(cfg, ck)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	pending := 0
	for _, ms := range r.sims {
		for i, h := range ms.specs {
			if st := ms.jobState(h); st != JobStatePending || h.recorded {
				t.Fatalf("%s: restored spec %d is %s (recorded %v), want pending", ms.m.Name, i, st, h.recorded)
			}
		}
		pending += len(ms.specs)
	}
	if recorded == 0 || pending == 0 {
		t.Fatalf("scenario too quiet: %d jobs recorded, %d pending at the checkpoint", recorded, pending)
	}
}

// TestCheckpointDropsFinishedJobs: once every study job is recorded, a
// checkpoint holds no spec entry; none of the submitted specs' bytes is
// anywhere in its file.
func TestCheckpointDropsFinishedJobs(t *testing.T) {
	cfg := jtConfig(3, 1)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	specs := jtSpecs()[:40]
	var handles []*JobHandle
	for _, sp := range specs {
		h, err := s.SubmitRetried(sp, 0)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	s.AdvanceTo(cfg.Start.Add(15 * 24 * time.Hour))
	for i, h := range handles {
		if st, _ := s.JobStatus(h); st != JobStateFinished {
			t.Fatalf("job %d is %s at the checkpoint, want finished", i, st)
		}
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	file := ckptFile(t, ck)
	for i, sp := range specs {
		if bytes.Contains(file, appendJobSpec(nil, sp)) {
			t.Fatalf("the %d-byte checkpoint still holds finished job %d's spec", len(file), i)
		}
	}
}

// TestMachineRecordMalformed runs one machine's record against fresh
// copies of that machine: the whole record restores and re-encodes to
// itself, every strict prefix is an error (never a panic, never a
// success), and so is each targeted corruption a checksum would let
// through if it were written that way.
func TestMachineRecordMalformed(t *testing.T) {
	s, cfg := ckptScenario(t, 1)
	defer s.Close()
	src := s.sims[1]
	var queued, background *queuedJob // a study job's and a background job's queue entries
	withdrawn := 0
	for _, q := range src.queue {
		if q.h == nil {
			background = q
		} else if queued = q; q.h.withdrawn {
			withdrawn++
		}
	}
	for _, rt := range src.retries {
		if rt.h != nil && rt.h.withdrawn {
			withdrawn++
		}
	}
	if queued == nil || background == nil || withdrawn == 0 || len(src.retries) == 0 || len(src.jobs) == 0 ||
		len(src.retrySpent) == 0 || len(src.waitRatios) == 0 || len(src.mstats.PendingSamples) == 0 {
		t.Fatalf("scenario too quiet: study job queued %v, %d withdrawn, %d retries, %d jobs, %d budgets, %d wait ratios, %d samples",
			queued != nil, withdrawn, len(src.retries), len(src.jobs), len(src.retrySpent), len(src.waitRatios), len(src.mstats.PendingSamples))
	}
	rec := src.appendCheckpoint(nil)

	c := cfg.withDefaults()
	bgNames := backgroundUserNames(c.Background.Users)
	fresh := func(i int) *machineSim { return newMachineSim(c, c.Machines[i], s, bgNames) }
	restore := func(i int, b []byte) error { return fresh(i).restore(journal.NewRecordReader(b)) }

	whole := fresh(1)
	if err := whole.restore(journal.NewRecordReader(rec)); err != nil {
		t.Fatalf("whole record: %v", err)
	}
	if again := whole.appendCheckpoint(nil); !bytes.Equal(again, rec) {
		t.Fatalf("restored machine re-encodes to %d bytes, the record is %d", len(again), len(rec))
	}
	for n := 0; n < len(rec); n++ {
		if err := restore(1, rec[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes restored without error", n, len(rec))
		}
	}
	if err := restore(1, append(bytes.Clone(rec), 0)); err == nil {
		t.Fatal("record with a trailing byte restored without error")
	}

	// patch returns rec with the byte at the first occurrence of marker,
	// offset by delta, replaced.
	patch := func(marker []byte, delta int, b byte) []byte {
		i := bytes.Index(rec, marker)
		if i < 0 || i+delta < 0 {
			t.Fatalf("marker % x not in the record", marker)
		}
		out := bytes.Clone(rec)
		out[i+delta] = b
		return out
	}
	// A background job's queue entry is its presence byte, then its
	// submit and service times.
	entry := journal.AppendFloat64(journal.AppendFloat64(nil, background.submit), background.execSec)
	var users []string
	for n, a := range src.bgAccts {
		if a.seen {
			users = append(users, src.bgNames[n])
		}
	}
	for u := range src.namedAccts {
		users = append(users, u)
	}
	sort.Strings(users)
	dead := journal.AppendBool(journal.AppendString(nil, src.m.Name), true)

	for name, tc := range map[string]struct {
		machine int
		rec     []byte
		want    string
	}{
		"bad presence byte":         {1, patch(entry, -1, 2), "bool byte 2"},
		"accumulators out of order": {1, patch(journal.AppendString(nil, users[0]), 1, '~'), "usage accumulators out of order"},
		"wrong machine name":        {0, rec, "record is for machine ibmq_rome (dead=false), not ibmq_athens"},
		"dead in the record":        {1, dead, "record is for machine ibmq_rome (dead=true)"},
	} {
		err := restore(tc.machine, tc.rec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore error %v, want one naming %q", name, err, tc.want)
		}
	}
}

// TestCheckpointFileBitFlipRejected flips a bit in every byte of a
// checkpoint file — magic, version, frame header, record: each must be
// an error from ReadCheckpoint, never a panic or a silent wrong read.
// So must every torn length.
func TestCheckpointFileBitFlipRejected(t *testing.T) {
	s, _ := ckptScenario(t, 1)
	defer s.Close()
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	data := ckptFile(t, ck)
	for pos := range data {
		corrupt := bytes.Clone(data)
		corrupt[pos] ^= 0x08
		if _, err := ReadCheckpoint(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("bit flip at byte %d of %d went undetected", pos, len(data))
		}
	}
	for n := 0; n < len(data); n += 97 {
		if _, err := ReadCheckpoint(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("file torn at %d of %d bytes read without error", n, len(data))
		}
	}
}

// TestGobEraJournalRefused pins what replaced the legacy readers: each
// format the gob era wrote is refused by its number — the checkpoint by
// version, the input log's submission and the machine stream's stats
// frame by record type — and none is misread.
func TestGobEraJournalRefused(t *testing.T) {
	for v := byte(1); v < checkpointVersion; v++ {
		file := append([]byte(checkpointMagic), v, 0x2d, 0xff, 0x81, 0x03, 0x01, 0x01)
		_, err := ReadCheckpoint(bytes.NewReader(file))
		if want := "checkpoint version " + string('0'+v) + " not supported"; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version-%d file: %v, want %q", v, err, want)
		}
	}

	cfg := jtConfig(3, 1)
	cfg.Journal = &JournalConfig{Dir: t.TempDir()}
	w, err := journal.Create(submitStreamDir(cfg.Journal.Dir), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := appendSubmitRecord(nil, "ibmq_athens", 1, jtSpecs()[0])
	for _, payload := range [][]byte{rec, {4, 0x2d, 0xff, 0x81}, rec} {
		if err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(cfg); err == nil || !strings.Contains(err.Error(), "input log record 1: cloud: submit record: unknown type 4") {
		t.Errorf("gob-era submission: Recover error %v", err)
	}
}

// TestRecoverSkipsGobEraCheckpoints: a journal directory whose only
// checkpoints are of another version (3, the last gob one, or 4, the
// last to carry finished specs) is recovered like one whose checkpoints
// are corrupt — from the window start, to the golden bytes.
func TestRecoverSkipsGobEraCheckpoints(t *testing.T) {
	golden := jtGolden(t, 1)
	total := journalRecordTotal(t, 1)
	for _, v := range []byte{3, 4} {
		t.Run(fmt.Sprintf("v%d", v), func(t *testing.T) { recoverPastVersion(t, v, total, golden) })
	}
}

func recoverPastVersion(t *testing.T, version byte, total int64, golden []byte) {
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
	for _, seq := range seqs {
		raw, err := os.ReadFile(ckptFilePath(dir, seq))
		if err != nil {
			t.Fatal(err)
		}
		raw[len(checkpointMagic)] = version
		if err := os.WriteFile(ckptFilePath(dir, seq), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Journal = &JournalConfig{Dir: dir, CheckpointEvery: 4 * 24 * time.Hour}
	tr := recoverAndFinish(t, cfg, jtSpecs())
	if !bytes.Equal(jtJSON(t, tr), golden) {
		t.Fatalf("recovered trace differs when every checkpoint is of version %d", version)
	}
}

// TestReadJournalTraceSealGrammar: a sealed machine stream is job*
// stats end. Every other order is refused by stream and record number,
// and so is the gob era's stats frame (type 2).
func TestReadJournalTraceSealGrammar(t *testing.T) {
	cfg := jtConfig(3, 1)
	cfg.Journal = &JournalConfig{Dir: t.TempDir()}
	if _, killed := runJournaled(t, cfg, jtSpecs()); killed {
		t.Fatal("unexpected kill")
	}
	mdir := machineStreamDir(cfg.Journal.Dir, "ibmq_athens")
	var job, stats []byte
	scan, err := journal.ForEach(mdir, func(_ int64, payload []byte) error {
		switch payload[0] {
		case jrecJob:
			job = bytes.Clone(payload)
		case jrecStats2:
			stats = bytes.Clone(payload)
		}
		return nil
	})
	if err != nil || job == nil || stats == nil {
		t.Fatalf("sealed stream has no job or no stats frame (err %v)", err)
	}
	end := []byte{jrecEnd}
	jobs := scan.Records - 2
	for name, tc := range map[string]struct {
		tail [][]byte // replaces the stream's stats and end records
		bad  int64    // which of them is refused
		want string
	}{
		"two stats frames":    {[][]byte{stats, stats, end}, 1, "(type 6) follows the stats frame"},
		"job after the stats": {[][]byte{stats, job, end}, 1, "(type 1) follows the stats frame"},
		"job after the end":   {[][]byte{stats, end, job}, 2, "lies past the seal marker"},
		"end without stats":   {[][]byte{end}, 0, "seals the stream before any stats frame"},
		"gob-era stats frame": {[][]byte{{2, 0x2d, 0xff, 0x81}, end}, 0, "has unknown type 2"},
	} {
		scan, err := journal.Scan(mdir)
		if err != nil {
			t.Fatal(err)
		}
		w, err := journal.OpenAt(mdir, scan, jobs, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, payload := range tc.tail {
			if err := w.Append(payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("%s record %d %s", mdir, jobs+tc.bad, tc.want)
		if _, err := ReadJournalTrace(cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: ReadJournalTrace error %v, want %q", name, err, want)
		}
	}
}

// FuzzReadCheckpoint mutates the checkpoint record and frames it
// itself, so mutation reaches the field decoder instead of dying at the
// checksum. ReadCheckpoint must never panic, and a file it accepts must
// re-write to the same bytes. The seeds' machine records are stand-ins:
// ReadCheckpoint only delimits them, and it stops short of Restore —
// behind a valid checksum the RNG fast-forward runs as long as the
// record says.
func FuzzReadCheckpoint(f *testing.F) {
	cfg := jtConfig(3, 1)
	full := &Checkpoint{
		Seed: cfg.Seed, Start: cfg.Start, End: cfg.End, Faults: cfg.Faults, Retry: cfg.Retry,
		JournalMachineRecords: []int64{0, 1 << 40}, JournalSubmits: 120, JournalSeq: 3,
		JournalNextCkpt: time.Unix(math.MaxInt32, 999999999),
		machines:        [][]byte{[]byte("\x0bibmq_athens\x00 and so on"), {}},
	}
	hdr := len(checkpointMagic) + 1 + 8
	rec := ckptFile(f, full)[hdr:]
	f.Add(rec)
	for n := range rec {
		f.Add(rec[:n])
	}
	f.Add(append(bytes.Clone(rec), 0x7f))
	f.Add(ckptFile(f, &Checkpoint{})[hdr:])
	f.Fuzz(func(t *testing.T, rec []byte) {
		file := journal.AppendFrame(append([]byte(checkpointMagic), checkpointVersion), rec)
		ck, err := ReadCheckpoint(bytes.NewReader(file))
		if err != nil {
			return
		}
		if again := ckptFile(t, ck); !bytes.Equal(again, file) {
			t.Fatalf("read → write changed the file:\n got % x\nwant % x", again, file)
		}
	})
}
