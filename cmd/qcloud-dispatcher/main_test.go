package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"qcloud/internal/dispatch"
	"qcloud/internal/dispatch/wire"
	"qcloud/internal/qsim"
)

// buildTool compiles one of the repo's commands into dir.
func buildTool(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "qcloud/cmd/"+name)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build %s: %v\n%s", name, err, out)
	}
	return bin
}

// freePort reserves a listen address the dispatcher can reuse across a
// kill + restart (the workers' -server URL must stay valid).
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// syncBuffer guards the capture buffer: exec starts one copier
// goroutine per stream (stdout, stderr) and the test reads while the
// daemon is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon wraps a started subprocess with captured output.
type daemon struct {
	cmd *exec.Cmd
	out *syncBuffer
}

// startDaemon launches bin and waits for readyLine (if non-empty) on
// its stdout/stderr.
func startDaemon(t *testing.T, readyLine string, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var buf syncBuffer
	pr, pw := io.Pipe()
	// One writer for both streams: os/exec then hands the child a single
	// pipe, so a stderr log line written before the stdout ready line is
	// also read before it.
	out := io.MultiWriter(&buf, pw)
	cmd.Stdout, cmd.Stderr = out, out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", bin, err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	d := &daemon{cmd: cmd, out: &buf}
	if readyLine == "" {
		go io.Copy(io.Discard, pr)
		return d
	}
	ready := make(chan struct{})
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			if strings.Contains(sc.Text(), readyLine) {
				close(ready)
				break
			}
		}
		io.Copy(io.Discard, pr)
	}()
	select {
	case <-ready:
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not print %q\n%s", bin, readyLine, buf.String())
	}
	return d
}

// signalAndWait delivers sig and waits for exit, failing on a non-zero
// status.
func signalAndWait(t *testing.T, d *daemon, sig syscall.Signal, within time.Duration) {
	t.Helper()
	if err := d.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after %v: %v\n%s", sig, err, d.out.String())
		}
	case <-time.After(within):
		d.cmd.Process.Kill()
		t.Fatalf("no exit within %v of %v\n%s", within, sig, d.out.String())
	}
}

// waitStatus polls the dispatcher until cond holds.
func waitStatus(t *testing.T, cl *dispatch.Client, within time.Duration, desc string, cond func(wire.StatusResponse) bool) wire.StatusResponse {
	t.Helper()
	deadline := time.Now().Add(within)
	var last wire.StatusResponse
	for time.Now().Before(deadline) {
		st, err := cl.Status()
		if err == nil {
			last = st
			if cond(st) {
				return st
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; last status %+v", desc, last)
	return last
}

// slowSpec is a unit big enough (~1-2s serial) to reliably catch a
// worker mid-batch.
func slowSpec() wire.Spec {
	return wire.Spec{
		SubmitTime: time.Date(2019, 1, 2, 0, 0, 0, 0, time.UTC),
		User:       "u0",
		Machine:    "ibmq_16_melbourne",
		BatchSize:  1, Shots: 64, CircuitName: "qft21", Width: 21,
		ExecKind: "qft", ExecWidth: 21, ExecBatch: 6, ExecShots: 64, ExecSeed: 5,
	}
}

// slowGoldenCounts is the in-process reference for slowSpec.
func slowGoldenCounts(t *testing.T) []byte {
	t.Helper()
	rs, err := wire.RunLocal([]wire.Spec{slowSpec()}, qsim.Parallelism{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDaemonsSIGKILLDispatcherRecovery is the tentpole acceptance pin
// at full distance: real dispatcher, two real workers, and a real load
// client; the dispatcher is SIGKILLed mid-run — while submissions and
// results are landing — and restarted on the same state directory. The
// load client blindly retries through the outage on its idempotency
// keys, and both merged CSVs come out byte-identical to the in-process
// references.
func TestDaemonsSIGKILLDispatcherRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash harness")
	}
	bins := t.TempDir()
	dispatcherBin := buildTool(t, bins, "qcloud-dispatcher")
	workerBin := buildTool(t, bins, "qcloud-worker")
	loadBin := buildTool(t, bins, "qcloud-load")

	work := t.TempDir()
	goldenTrace := filepath.Join(work, "golden-trace.csv")
	goldenCounts := filepath.Join(work, "golden-counts.csv")
	loadArgs := []string{"-seed", "9", "-jobs", "300", "-days", "60", "-q"}
	if out, err := exec.Command(loadBin, append(append([]string{}, loadArgs...),
		"-local", "-trace-csv", goldenTrace, "-counts-csv", goldenCounts)...).CombinedOutput(); err != nil {
		t.Fatalf("golden run: %v\n%s", err, out)
	}
	wantTrace, err := os.ReadFile(goldenTrace)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts, err := os.ReadFile(goldenCounts)
	if err != nil {
		t.Fatal(err)
	}

	addr := freePort(t)
	state := filepath.Join(work, "state")
	dispArgs := []string{"-listen", addr, "-state", state, "-seed", "9", "-days", "60", "-ckpt-every", "8"}
	disp := startDaemon(t, "listening on", dispatcherBin, dispArgs...)

	server := "http://" + addr
	for i := 0; i < 2; i++ {
		startDaemon(t, "", workerBin, "-server", server, "-name", fmt.Sprintf("w%d", i), "-poll", "20ms", "-q")
	}

	gotTrace := filepath.Join(work, "trace.csv")
	gotCounts := filepath.Join(work, "counts.csv")
	load := startDaemon(t, "", loadBin, append(append([]string{}, loadArgs...),
		"-server", server, "-wait", "-retry-for", "120s", "-poll", "20ms",
		"-trace-csv", gotTrace, "-counts-csv", gotCounts)...)

	// Let the run get properly underway — submissions accepted,
	// results merged — then kill the dispatcher without ceremony.
	cl := &dispatch.Client{Server: server, Timeout: 2 * time.Second}
	waitStatus(t, cl, time.Minute, "mid-run progress", func(st wire.StatusResponse) bool {
		return st.Done >= 5 && st.Jobs > st.Done
	})
	disp.cmd.Process.Kill()
	disp.cmd.Wait()

	// Restart on the same state directory and address. Workers and the
	// load client ride out the gap and reconnect on their own.
	disp2 := startDaemon(t, "listening on", dispatcherBin, dispArgs...)
	if !strings.Contains(disp2.out.String(), "recovered queue state") {
		t.Fatalf("restarted dispatcher did not recover:\n%s", disp2.out.String())
	}

	done := make(chan error, 1)
	go func() { done <- load.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("load client failed: %v\n%s", err, load.out.String())
		}
	case <-time.After(3 * time.Minute):
		t.Fatalf("load client did not finish\n%s", load.out.String())
	}

	got, err := os.ReadFile(gotTrace)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantTrace) {
		t.Errorf("trace CSV differs from in-process reference after dispatcher SIGKILL (%d vs %d bytes)", len(got), len(wantTrace))
	}
	got, err = os.ReadFile(gotCounts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantCounts) {
		t.Errorf("counts CSV differs from in-process reference after dispatcher SIGKILL (%d vs %d bytes)", len(got), len(wantCounts))
	}
	signalAndWait(t, disp2, syscall.SIGTERM, 30*time.Second)
}

// submitSlow drives one slow unit into a fresh dispatcher and seals.
func submitSlow(t *testing.T, cl *dispatch.Client) {
	t.Helper()
	if _, err := cl.Submit("slow/0", slowSpec()); err != nil {
		t.Fatal(err)
	}
	if err := cl.Seal(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerSIGKILLRequeue pins the lease machinery end to end: a real
// worker is SIGKILLed mid-batch, the dispatcher's lease expiry
// requeues the unit through the retry policy, a second worker picks it
// up, and the final merged CSV is byte-identical to the in-process
// run.
func TestWorkerSIGKILLRequeue(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash harness")
	}
	bins := t.TempDir()
	dispatcherBin := buildTool(t, bins, "qcloud-dispatcher")
	workerBin := buildTool(t, bins, "qcloud-worker")

	addr := freePort(t)
	startDaemon(t, "listening on", dispatcherBin,
		"-listen", addr, "-state", filepath.Join(t.TempDir(), "state"), "-seed", "9",
		"-lease", "500ms", "-retry-base", "100ms", "-retry-cap", "200ms")
	server := "http://" + addr
	cl := &dispatch.Client{Server: server, Timeout: 2 * time.Second}
	submitSlow(t, cl)

	victim := startDaemon(t, "", workerBin, "-server", server, "-name", "victim", "-workers", "1", "-poll", "10ms", "-q")
	waitStatus(t, cl, 30*time.Second, "victim leased the unit", func(st wire.StatusResponse) bool {
		return st.Leased == 1
	})
	victim.cmd.Process.Kill() // mid-batch: heartbeats stop with it
	victim.cmd.Wait()

	startDaemon(t, "", workerBin, "-server", server, "-name", "rescuer", "-workers", "1", "-poll", "10ms", "-q")
	waitStatus(t, cl, time.Minute, "rescuer finished the unit", func(st wire.StatusResponse) bool {
		return st.Done == 1
	})

	// The lease actually expired and requeued (the rescuer did not just
	// race the victim's report).
	ev, err := cl.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	tally := map[string]int{}
	for _, e := range ev.Events {
		tally[string(e.Kind)]++
	}
	if tally["retry"] < 1 || tally["requeue"] < 1 {
		t.Errorf("no lease-expiry requeue observed: %v", tally)
	}
	if tally["done"] != 1 {
		t.Errorf("done events = %d, want exactly 1", tally["done"])
	}

	got, err := cl.CountsCSV(false)
	if err != nil {
		t.Fatal(err)
	}
	if want := slowGoldenCounts(t); !bytes.Equal(got, want) {
		t.Errorf("counts CSV differs from in-process run after worker SIGKILL (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDispatcherSIGTERMGraceful pins the dispatcher half of the
// graceful-shutdown contract: SIGTERM while a unit is mid-lease drains
// — the in-flight result lands, the journals seal, the process exits
// 0 — and a restart on the same state shows the completed work. The
// first dispatcher runs with both profiling flags: the profiles are
// written on that exit and the counts are the unprofiled in-process
// run's.
func TestDispatcherSIGTERMGraceful(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness")
	}
	bins := t.TempDir()
	dispatcherBin := buildTool(t, bins, "qcloud-dispatcher")
	workerBin := buildTool(t, bins, "qcloud-worker")

	addr := freePort(t)
	state := filepath.Join(t.TempDir(), "state")
	cpuProf, memProf := filepath.Join(bins, "cpu.prof"), filepath.Join(bins, "mem.prof")
	disp := startDaemon(t, "listening on", dispatcherBin,
		"-listen", addr, "-state", state, "-seed", "9", "-drain-timeout", "60s",
		"-cpuprofile", cpuProf, "-memprofile", memProf)
	server := "http://" + addr
	cl := &dispatch.Client{Server: server, Timeout: 2 * time.Second}
	submitSlow(t, cl)

	startDaemon(t, "", workerBin, "-server", server, "-name", "w0", "-workers", "1", "-poll", "10ms", "-q")
	waitStatus(t, cl, 30*time.Second, "unit leased", func(st wire.StatusResponse) bool {
		return st.Leased == 1
	})
	// SIGTERM mid-lease: the dispatcher must wait for the in-flight
	// result rather than dropping it.
	signalAndWait(t, disp, syscall.SIGTERM, time.Minute)
	if !strings.Contains(disp.out.String(), "shutdown complete: leases drained, journals sealed") {
		t.Fatalf("no graceful-shutdown line:\n%s", disp.out.String())
	}
	if strings.Contains(disp.out.String(), "drain timeout") {
		t.Fatalf("drain timed out instead of landing the in-flight lease:\n%s", disp.out.String())
	}
	for _, p := range []string{cpuProf, memProf} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty after graceful exit (err %v)", filepath.Base(p), err)
		}
	}

	// The drained state — including the result that landed during the
	// drain — survives into a restart.
	disp2 := startDaemon(t, "listening on", dispatcherBin,
		"-listen", addr, "-state", state, "-seed", "9")
	st := waitStatus(t, cl, 30*time.Second, "recovered status", func(st wire.StatusResponse) bool {
		return st.Jobs == 1
	})
	if st.Done != 1 || st.Leased != 0 {
		t.Fatalf("recovered status = %+v, want the drained unit done", st)
	}
	if want := slowGoldenCounts(t); true {
		got, err := cl.CountsCSV(false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("counts CSV differs after graceful drain (%d vs %d bytes)", len(got), len(want))
		}
	}
	signalAndWait(t, disp2, syscall.SIGTERM, 30*time.Second)
}

// TestWorkerSIGTERMGraceful pins the worker half: SIGTERM mid-batch
// finishes the batch, reports it, deregisters, and exits 0 — no lease
// expiry, no requeue. The worker runs with both profiling flags: the
// profiles are written on that exit and the counts are the unprofiled
// in-process run's.
func TestWorkerSIGTERMGraceful(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess harness")
	}
	bins := t.TempDir()
	dispatcherBin := buildTool(t, bins, "qcloud-dispatcher")
	workerBin := buildTool(t, bins, "qcloud-worker")

	addr := freePort(t)
	startDaemon(t, "listening on", dispatcherBin,
		"-listen", addr, "-state", filepath.Join(t.TempDir(), "state"), "-seed", "9")
	server := "http://" + addr
	cl := &dispatch.Client{Server: server, Timeout: 2 * time.Second}
	submitSlow(t, cl)

	cpuProf, memProf := filepath.Join(bins, "cpu.prof"), filepath.Join(bins, "mem.prof")
	w := startDaemon(t, "registered", workerBin, "-server", server, "-name", "w0", "-workers", "1", "-poll", "10ms",
		"-cpuprofile", cpuProf, "-memprofile", memProf)
	waitStatus(t, cl, 30*time.Second, "unit leased", func(st wire.StatusResponse) bool {
		return st.Leased == 1
	})
	signalAndWait(t, w, syscall.SIGTERM, time.Minute)
	if !strings.Contains(w.out.String(), "1 units completed") {
		t.Fatalf("worker did not report its batch before exiting:\n%s", w.out.String())
	}
	for _, p := range []string{cpuProf, memProf} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty after graceful exit (err %v)", filepath.Base(p), err)
		}
	}
	got, err := cl.CountsCSV(false)
	if err != nil {
		t.Fatal(err)
	}
	if want := slowGoldenCounts(t); !bytes.Equal(got, want) {
		t.Errorf("counts CSV of the profiled worker differs from the in-process run (%d vs %d bytes)", len(got), len(want))
	}

	st, err := cl.Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done != 1 || st.Leased != 0 {
		t.Fatalf("status after graceful worker exit = %+v", st)
	}
	if len(st.Workers) != 0 {
		t.Fatalf("worker did not deregister: %v", st.Workers)
	}

	// No lease ever expired: the event stream has exactly one
	// start/done pair and no retry.
	ev, err := cl.Events(0)
	if err != nil {
		t.Fatal(err)
	}
	tally := map[string]int{}
	for _, e := range ev.Events {
		tally[string(e.Kind)]++
	}
	if tally["retry"] != 0 || tally["start"] != 1 || tally["done"] != 1 {
		t.Errorf("event tally = %v, want one clean start/done", tally)
	}
}
