package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "qcloud-sim")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func mustRun(t *testing.T, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
}

// TestJournalSIGKILLRecovery is the tentpole's end-to-end harness: a
// real qcloud-sim process is SIGKILLed mid-run at several wall-clock
// offsets — no cleanup, no flushing, exactly like a crash or OOM kill
// — and -recover must finish each run with CSV output byte-identical
// to an uninterrupted one. Offsets that outlive the run exercise
// recovery over a sealed journal, which must also reproduce the bytes.
func TestJournalSIGKILLRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash harness")
	}
	bin := buildSim(t)
	work := t.TempDir()
	golden := filepath.Join(work, "golden.csv")
	base := []string{"-seed", "9", "-days", "365", "-jobs", "800", "-q"}
	mustRun(t, bin, append(base, "-csv", golden)...)
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	for i, delay := range []time.Duration{150 * time.Millisecond, 600 * time.Millisecond, 1300 * time.Millisecond} {
		dir := filepath.Join(work, fmt.Sprintf("journal-%d", i))
		out := filepath.Join(work, fmt.Sprintf("out-%d.csv", i))
		jargs := append(append([]string{}, base...), "-journal", dir, "-journal-ckpt-days", "45", "-csv", out)
		cmd := exec.Command(bin, jargs...)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		timer := time.AfterFunc(delay, func() { cmd.Process.Kill() })
		runErr := cmd.Wait()
		timer.Stop()
		rargs := append(append([]string{}, jargs...), "-recover")
		rec := exec.Command(bin, rargs...)
		if recOut, err := rec.CombinedOutput(); err != nil {
			t.Fatalf("kill at %v (run err %v): recover failed: %v\n%s", delay, runErr, err, recOut)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("kill at %v (run err %v): recovered CSV differs from uninterrupted run (%d vs %d bytes)",
				delay, runErr, len(got), len(want))
		}
	}
}

// TestRecoverRefusesEvents: a recovered session's observer would see
// only the events after the restored checkpoint, so -recover with
// -events is refused before anything runs, even over a journal that
// -recover alone resumes.
func TestRecoverRefusesEvents(t *testing.T) {
	bin := buildSim(t)
	dir := filepath.Join(t.TempDir(), "journal")
	base := []string{"-seed", "5", "-jobs", "100", "-days", "20", "-q", "-journal", dir, "-journal-ckpt-days", "5"}
	mustRun(t, bin, base...)
	out, err := exec.Command(bin, append(base, "-recover", "-events")...).CombinedOutput()
	if err == nil {
		t.Fatalf("-recover -events exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "-events cannot combine with -recover") || strings.Contains(string(out), "session events") {
		t.Fatalf("-recover -events: want the refusal and no tally, got:\n%s", out)
	}
	mustRun(t, bin, append(base, "-recover")...)
}

// TestOutOfRangeFlagsRefused: a flag value outside its range is refused
// before anything runs, instead of quietly becoming a default (6200
// jobs for -jobs -1, the full two years for -days -5, a 30-day cadence
// for -journal-ckpt-days -1) or overflowing (-days 200000 ran no jobs).
// So is a mode's flag set without its mode, which would be ignored.
func TestOutOfRangeFlagsRefused(t *testing.T) {
	bin := buildSim(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-jobs", "-1", "-days", "5"}, "-jobs must be at least 1"},
		{[]string{"-jobs", "0", "-days", "5"}, "-jobs must be at least 1"},
		{[]string{"-jobs", "100", "-days", "-5"}, "-days must be a number of days, 0 or more"},
		{[]string{"-jobs", "100", "-days", "5", "-tenants", "skewed", "-tenant-count", "-1"}, "-tenant-count must not be negative"},
		{[]string{"-jobs", "100", "-days", "5", "-journal-ckpt-days", "-1"}, "-journal-ckpt-days must be positive"},
		{[]string{"-jobs", "100", "-days", "5", "-journal-ckpt-days", "0"}, "-journal-ckpt-days must be positive"},
		{[]string{"-jobs", "10", "-days", "200000"}, "-days must be at most 106751"},
		{[]string{"-jobs", "10", "-days", "5", "-preempt", "bogus"}, "-preempt must be scenario, on or off"},
		{[]string{"-jobs", "10", "-days", "5", "-preempt", "on"}, "-preempt requires -tenants"},
		{[]string{"-jobs", "10", "-days", "5", "-tenant-count", "7"}, "-tenant-count requires -tenants"},
		{[]string{"-jobs", "10", "-days", "5", "-journal-ckpt-days", "7"}, "-journal-ckpt-days requires -journal"},
	} {
		csv := filepath.Join(t.TempDir(), "out.csv")
		out, err := exec.Command(bin, append(c.args, "-q", "-csv", csv)...).CombinedOutput()
		if err == nil || !strings.Contains(string(out), c.want) {
			t.Errorf("%v: want a refusal naming %q, got err=%v:\n%s", c.args, c.want, err, out)
		}
		if _, err := os.Stat(csv); err == nil {
			t.Errorf("%v: the run went ahead and wrote its CSV", c.args)
		}
	}
}
