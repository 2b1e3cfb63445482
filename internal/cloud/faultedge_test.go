package cloud

import (
	"testing"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/fault"
	"qcloud/internal/trace"
)

// Integration-level downtime edge cases: these drive a real session but
// plant synthetic downtime calendars on the machine, which only an
// in-package test can do.

// edgeConfig is a quiet one-machine fleet whose jobs never error.
func edgeConfig(t *testing.T, seed int64) Config {
	setErrorRate(t, 0)
	m, err := backend.FindMachine(backend.Fleet(), "ibmq_rome")
	if err != nil {
		panic(err)
	}
	bg := DefaultBackground()
	bg.PublicUtil, bg.PrivateUtil = 0, 0
	bg.RampFloor = 0
	return Config{
		Seed:       seed,
		Start:      time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC),
		End:        time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC),
		Machines:   []*backend.Machine{m},
		Background: bg,
	}
}

func edgeSpec(i int, at time.Time) *JobSpec {
	return &JobSpec{
		SubmitTime: at, User: "edge", Machine: "ibmq_rome",
		BatchSize: 20, Shots: 4096, CircuitName: "qft4",
		Width: 4, TotalDepth: 400, TotalGateOps: 1200, CXTotal: 300, MemSlots: 4,
	}
}

// TestNoErrorsFleet: with the error rate at 0, a fleet produces no
// ERROR records.
func TestNoErrorsFleet(t *testing.T) {
	cfg := edgeConfig(t, 9)
	var specs []*JobSpec
	base := cfg.Start.Add(24 * time.Hour)
	for i := 0; i < 200; i++ {
		specs = append(specs, edgeSpec(i, base.Add(time.Duration(i)*90*time.Minute)))
	}
	tr, err := Simulate(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	for _, j := range tr.Jobs {
		if j.Status == trace.StatusError {
			t.Fatalf("zero-error fleet produced an ERROR job: %+v", j)
		}
		if j.Status == trace.StatusDone {
			done++
		}
	}
	if done < 150 {
		t.Fatalf("done jobs = %d, want most of the 200 to execute", done)
	}
}

// TestDowntimeFaultWindowsAtExactJobStart: back-to-back downtime
// windows whose first edge falls exactly on the instant a job would
// start must displace the start across both windows — whether the
// windows are planned maintenance or unplanned fault outages.
func TestDowntimeFaultWindowsAtExactJobStart(t *testing.T) {
	for _, asFault := range []bool{false, true} {
		cfg := edgeConfig(t, 7)
		sess, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ms := sess.sim("ibmq_rome")
		submitAt := cfg.Start.Add(5 * 24 * time.Hour)
		s := ms.toSec(submitAt)
		// Two abutting windows, the first beginning exactly at the
		// job's start instant (idle quiet machine: start == submit).
		ms.downtimes = []dtWin{
			{start: s, end: s + 600, fault: asFault},
			{start: s + 600, end: s + 1800, fault: asFault},
		}
		if _, err := sess.Submit(edgeSpec(0, submitAt)); err != nil {
			t.Fatal(err)
		}
		tr, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.Jobs) != 1 {
			t.Fatalf("fault=%v: got %d jobs, want 1", asFault, len(tr.Jobs))
		}
		j := tr.Jobs[0]
		if j.Status != trace.StatusDone {
			t.Fatalf("fault=%v: status %v, want DONE", asFault, j.Status)
		}
		want := ms.toTime(s + 1800)
		if !j.StartTime.Equal(want) {
			t.Fatalf("fault=%v: start %v, want %v (displaced across both windows)",
				asFault, j.StartTime, want)
		}
	}
}

// TestCancelInsideDowntimeWindow: an explicit Cancel whose instant
// falls inside a downtime window records the cancellation at that
// instant. Cancellation is a queue operation, not an execution — the
// machine being down must not displace it to the window's end.
func TestCancelInsideDowntimeWindow(t *testing.T) {
	cfg := edgeConfig(t, 9)
	sess, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := sess.sim("ibmq_rome")
	base := cfg.Start.Add(5 * 24 * time.Hour)
	s := ms.toSec(base)

	// Job A keeps the server busy well past the cancel instant, so B
	// stays waiting in the queue when the Cancel lands.
	a := edgeSpec(0, base)
	a.BatchSize, a.Shots = 300, 8192
	if _, err := sess.Submit(a); err != nil {
		t.Fatal(err)
	}
	b := edgeSpec(1, base.Add(time.Minute))
	hb, err := sess.Submit(b)
	if err != nil {
		t.Fatal(err)
	}
	// A downtime window that is underway at the cancel instant but
	// starts after A (so A's start is not displaced).
	ms.downtimes = []dtWin{{start: s + 90, end: s + 7200}}

	cancelAt := base.Add(2 * time.Minute)
	sess.AdvanceTo(cancelAt)
	if st, _ := sess.JobStatus(hb); st != JobStateQueued {
		t.Fatalf("B should be queued behind A at the cancel instant, state = %v", st)
	}
	if err := sess.Cancel(hb); err != nil {
		t.Fatal(err)
	}
	tr, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	var rec *trace.Job
	for _, j := range tr.Jobs {
		if j.SubmitTime.Equal(b.SubmitTime) {
			rec = j
		}
	}
	if rec == nil {
		t.Fatal("cancelled job missing from the trace")
	}
	if rec.Status != trace.StatusCancelled {
		t.Fatalf("status %v, want CANCELLED", rec.Status)
	}
	if !rec.EndTime.Equal(cancelAt) {
		t.Fatalf("cancellation recorded at %v, want the cancel instant %v (inside the window, undisplaced)",
			rec.EndTime, cancelAt)
	}
}

// TestCancelBeforeAdmissionInsideDowntime: cancelling a spec the
// machine has not even admitted yet, at an instant covered by a
// downtime window, records immediately at that instant.
func TestCancelBeforeAdmissionInsideDowntime(t *testing.T) {
	cfg := edgeConfig(t, 11)
	sess, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ms := sess.sim("ibmq_rome")
	submitAt := cfg.Start.Add(5 * 24 * time.Hour)
	s := ms.toSec(submitAt)
	ms.downtimes = []dtWin{{start: s - 600, end: s + 7200, fault: true}}
	h, err := sess.Submit(edgeSpec(0, submitAt))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Cancel(h); err != nil {
		t.Fatal(err)
	}
	if st, _ := sess.JobStatus(h); st != JobStateFinished {
		t.Fatalf("cancelled-before-admission job state = %v, want finished", st)
	}
	tr, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 1 || tr.Jobs[0].Status != trace.StatusCancelled {
		t.Fatalf("want exactly one CANCELLED record, got %+v", tr.Jobs)
	}
	if !tr.Jobs[0].EndTime.Equal(submitAt) {
		t.Fatalf("cancellation at %v, want %v (submit instant, inside the outage)",
			tr.Jobs[0].EndTime, submitAt)
	}
}

// TestRetryAttemptCap: one study job per session, every attempt of it
// meeting a transient fault, is started at most MaxAttempts times, and
// every start but its last is retried. Execution errors (raised here)
// end some jobs early; at least one seed must run into the cap.
func TestRetryAttemptCap(t *testing.T) {
	cfg := edgeConfig(t, 0)
	setErrorRate(t, 0.2)
	cfg.Faults = &fault.Profile{TransientErrorRate: 1}
	cfg.Retry = &RetryPolicy{MaxAttempts: 4, BaseBackoff: 5 * time.Minute, MaxBackoff: 20 * time.Minute}
	capped := 0
	for seed := int64(1); seed <= 8; seed++ {
		cfg.Seed = seed
		sess, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Submit(edgeSpec(0, cfg.Start.Add(24*time.Hour))); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		c := sess.Stats()[0].Study
		if c.Start < 1 || c.Start > int64(cfg.Retry.MaxAttempts) {
			t.Fatalf("seed %d: %d starts, want 1 to %d", seed, c.Start, cfg.Retry.MaxAttempts)
		}
		if c.Retry != c.Start-1 || c.Error != 1 {
			t.Fatalf("seed %d: %d starts, %d retries, %d errors; want every start but the last retried and one error", seed, c.Start, c.Retry, c.Error)
		}
		if c.Start == int64(cfg.Retry.MaxAttempts) {
			capped++
		}
	}
	if capped == 0 {
		t.Fatal("no seed ran into the attempt cap")
	}
}
