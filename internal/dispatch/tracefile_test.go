package dispatch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"qcloud/internal/cloud"
	"qcloud/internal/dispatch/wire"
	"qcloud/internal/journal"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

// traceStart opens the short window the trace-file tests replay, so a
// test can afford hundreds of replays.
var traceStart = time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)

// traceFixture fills a fresh state dir with a sealed stream of three
// specs inside a six-hour window, seq 1 cancelled, and returns the
// dispatcher config that wrote it and the specs.
func traceFixture(t *testing.T) (Config, []wire.Spec) {
	t.Helper()
	cfg := Config{Dir: t.TempDir(), Seed: 5, Start: traceStart, End: traceStart.Add(6 * time.Hour), SimWorkers: 1}
	specs := workload.Generate(workload.Config{Seed: 5, TotalJobs: 3, Start: cfg.Start, End: cfg.End})
	if len(specs) < 3 {
		t.Fatalf("fixture workload has %d specs", len(specs))
	}
	plans := make([]wire.Spec, len(specs))
	for i, js := range specs {
		plans[i] = wire.Plan(js, wire.ExecCaps{MaxWidth: 4, MaxBatch: 1, MaxShots: 16}, 5, i)
	}
	d := openDispatcher(t, cfg)
	for i := range plans {
		if _, _, err := d.q.Submit(fmt.Sprintf("k/%d", i), plans[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := d.q.Cancel("k/1", 0); err != nil {
		t.Fatal(err)
	}
	if err := d.q.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return cfg, plans
}

func openDispatcher(t *testing.T, cfg Config) *Dispatcher {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// referenceTrace is the in-process trace of specs under cfg's seed and
// window: what cloud.Simulate does — a session fed the specs in seq
// order, run to the end — plus a Cancel right after submitting each
// cancelled seq.
func referenceTrace(t *testing.T, cfg Config, specs []wire.Spec, cancelled ...int64) []byte {
	t.Helper()
	sess, err := cloud.Open(cloud.Config{Seed: cfg.Seed, Start: cfg.Start, End: cfg.End})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for i := range specs {
		h, err := sess.SubmitRetried(specs[i].JobSpec(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range cancelled {
			if seq == int64(i) {
				if err := sess.Cancel(h); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tr, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, tr.Jobs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// traceFileOf is the trace file holding csv, bound to b.
func traceFileOf(b *wire.TraceBinding, csv []byte) []byte {
	// Writing into EncodeTraceFile's buffer cannot fail.
	file, _, _ := wire.EncodeTraceFile(b, func(w io.Writer) error { _, err := w.Write(csv); return err })
	return file
}

// checkRecomputed restarts a dispatcher on cfg and requires it to serve
// want and to leave the trace file of want under its binding.
func checkRecomputed(t *testing.T, cfg Config, want []byte, what string) {
	t.Helper()
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	checkServes(t, d, want, what)
}

// checkServes requires d, with no answer in memory, to serve want and
// to leave the trace file of want under its binding.
func checkServes(t *testing.T, d *Dispatcher, want []byte, what string) {
	t.Helper()
	d.trace = nil
	got, err := d.TraceCSV()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: served %d bytes that are not the reference trace:\n%s", what, len(got), got)
	}
	b, _ := d.traceBinding()
	if kept, _ := os.ReadFile(filepath.Join(d.cfg.Dir, traceFileName)); !bytes.Equal(kept, traceFileOf(&b, want)) {
		t.Fatalf("%s: the trace file was not rewritten with the reference trace", what)
	}
}

// TestTraceFileServedAfterRestart: a restarted dispatcher serves a
// trace file whose frame and binding check out, verbatim — a marker
// no replay could produce proves the replay was skipped — and ignores
// a leftover temp file beside it.
func TestTraceFileServedAfterRestart(t *testing.T) {
	cfg, _ := traceFixture(t)
	b, err := openDispatcher(t, cfg).traceBinding()
	if err != nil {
		t.Fatal(err)
	}
	marker := []byte("planted,not,replayed\n")
	if err := os.WriteFile(filepath.Join(cfg.Dir, traceFileName), traceFileOf(&b, marker), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(cfg.Dir, traceFileName+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := openDispatcher(t, cfg)
	for i := 0; i < 2; i++ {
		got, err := d.TraceCSV()
		if err != nil || !bytes.Equal(got, marker) {
			t.Fatalf("call %d served %q, %v; want the planted CSV", i, got, err)
		}
	}
}

// TestTraceFileFirstReplayWritesIt: the first answer on a sealed dir is
// the in-process reference, and it leaves the trace file; a leftover
// temp file does not stand in for it.
func TestTraceFileFirstReplayWritesIt(t *testing.T) {
	cfg, specs := traceFixture(t)
	want := referenceTrace(t, cfg, specs, 1)
	if err := os.WriteFile(filepath.Join(cfg.Dir, traceFileName+".tmp"), []byte("QTR1 torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	checkRecomputed(t, cfg, want, "first replay")
	if _, err := os.Stat(filepath.Join(cfg.Dir, traceFileName+".tmp")); !os.IsNotExist(err) {
		t.Fatalf("the temp file outlived the rename: %v", err)
	}
}

// TestTraceFileDamageRecomputed: a trace file with any byte flipped, or
// torn anywhere, or with a foreign magic or another version, is never
// served: the trace is recomputed and the file rewritten. One
// dispatcher stands in for the hundreds of restarts, its answer in
// memory dropped before each damaged file is read.
func TestTraceFileDamageRecomputed(t *testing.T) {
	cfg, specs := traceFixture(t)
	want := referenceTrace(t, cfg, specs, 1)
	checkRecomputed(t, cfg, want, "first replay")
	path := filepath.Join(cfg.Dir, traceFileName)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d := openDispatcher(t, cfg)
	damage := func(what string, file []byte) {
		t.Helper()
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		checkServes(t, d, want, what)
	}
	for i := range good {
		flipped := bytes.Clone(good)
		flipped[i] ^= 0xff
		damage(fmt.Sprintf("byte %d flipped", i), flipped)
	}
	for n := 0; n < len(good); n += 97 {
		damage(fmt.Sprintf("torn at %d", n), good[:n])
	}
	framed := good[len(wire.TraceFileMagic):]
	damage("foreign magic", append([]byte(ckptMagic), framed...))
	payload, err := journal.Frame(framed)
	if err != nil {
		t.Fatal(err)
	}
	other := append([]byte{wire.TraceFileVersion + 1}, payload[1:]...)
	damage("another version", journal.AppendFrame([]byte(wire.TraceFileMagic), other))
}

// TestTraceFileStaleBindingRecomputed: a trace file bound to another
// window end or seed is not served. (Another cancel set is
// TestTraceAfterLateCancel.)
func TestTraceFileStaleBindingRecomputed(t *testing.T) {
	restart := func(what string, change func(*Config)) {
		cfg, specs := traceFixture(t)
		first := referenceTrace(t, cfg, specs, 1)
		checkRecomputed(t, cfg, first, "first replay")
		change(&cfg)
		want := referenceTrace(t, cfg, specs, 1)
		if bytes.Equal(want, first) {
			t.Fatalf("%s leaves the reference trace as it was: the case proves nothing", what)
		}
		checkRecomputed(t, cfg, want, what)
	}
	// A restart with another -days; the shorter window ends before the
	// fixture's last job does.
	restart("a shorter window", func(cfg *Config) { cfg.End = cfg.Start.Add(time.Hour) })
	restart("another seed", func(cfg *Config) { cfg.Seed++ })
}

// TestTraceAfterLateCancel: a cancel accepted after the seal changes the
// trace. The dispatcher that served the trace before it serves the new
// one after it — the in-process reference with both cancels, and what a
// restarted dispatcher computes from the WALs alone — and rewrites the
// trace file with it.
func TestTraceAfterLateCancel(t *testing.T) {
	cfg, specs := traceFixture(t)
	d := openDispatcher(t, cfg)
	before, err := d.TraceCSV()
	if err != nil {
		t.Fatal(err)
	}
	if accepted, _, err := d.q.Cancel("k/2", 0); err != nil || !accepted {
		t.Fatalf("late cancel = %v, %v", accepted, err)
	}
	after, err := d.TraceCSV()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(after, before) {
		t.Fatal("the trace served after a late cancel is the one served before it")
	}
	if want := referenceTrace(t, cfg, specs, 1, 2); !bytes.Equal(after, want) {
		t.Fatalf("after the late cancel:\n%s\nwant the reference with both cancels:\n%s", after, want)
	}
	b, _ := d.traceBinding()
	if kept, _ := os.ReadFile(filepath.Join(cfg.Dir, traceFileName)); !bytes.Equal(kept, traceFileOf(&b, after)) {
		t.Fatal("the trace file was not rewritten after the late cancel")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(cfg.Dir, traceFileName)); err != nil {
		t.Fatal(err)
	}
	checkRecomputed(t, cfg, after, "restart without the trace file")
}

// TestTraceCSVConcurrent: readers racing a late cancel each get the
// trace from before it or from after it, never anything else, and once
// the cancel is in every reader gets the one from after.
func TestTraceCSVConcurrent(t *testing.T) {
	cfg, specs := traceFixture(t)
	before, after := referenceTrace(t, cfg, specs, 1), referenceTrace(t, cfg, specs, 1, 2)
	d := openDispatcher(t, cfg)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				got, err := d.TraceCSV()
				if err != nil || !bytes.Equal(got, before) && !bytes.Equal(got, after) {
					t.Errorf("a reader racing the cancel got %d bytes, %v", len(got), err)
				}
			}
		}()
	}
	if _, _, err := d.q.Cancel("k/2", 0); err != nil {
		t.Error(err)
	}
	wg.Wait()
	if got, err := d.TraceCSV(); err != nil || !bytes.Equal(got, after) {
		t.Fatalf("after the cancel: %d bytes, %v; want the trace with both cancels", len(got), err)
	}
}

// The trace plane's bytes at wire.TraceFileVersion: the sha256 of the
// trace CSV of traceFixture's stream. See TestTraceVersionPinsTheBytes.
const (
	pinnedTraceVersion = 1
	pinnedTraceSHA256  = "7ce2f12b93c64fe1caad3621e70dcc3277b7418dd8064b4aaffc1a72d0cb59a3"
)

// TestTraceVersionPinsTheBytes: a trace file must never outlive a change
// to what the trace plane computes, and its version byte is what keeps
// it from being served. The trace of a fixed stream is pinned beside
// the version it was computed at, so a change to the bytes fails here
// until the version is bumped with it.
func TestTraceVersionPinsTheBytes(t *testing.T) {
	cfg, _ := traceFixture(t)
	csv, err := openDispatcher(t, cfg).TraceCSV()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(csv)
	if got := hex.EncodeToString(sum[:]); wire.TraceFileVersion != pinnedTraceVersion || got != pinnedTraceSHA256 {
		t.Fatalf("the trace plane computes sha256 %s at trace file version %d; pinned: %s at version %d.\n"+
			"If the trace bytes changed, trace files written before the change would be served as current: "+
			"bump wire.TraceFileVersion (internal/dispatch/wire/tracefile.go), then set pinnedTraceVersion and pinnedTraceSHA256 to the new pair.",
			got, wire.TraceFileVersion, pinnedTraceSHA256, pinnedTraceVersion)
	}
}
