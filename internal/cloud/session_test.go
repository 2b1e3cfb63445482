package cloud_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

func traceJSON(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func traceHash(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	return fmt.Sprintf("%x", sha256.Sum256(traceJSON(t, tr)))
}

var sessWindow = struct{ start, end time.Time }{
	start: time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC),
	end:   time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC),
}

// sessMachines picks a three-machine sub-fleet (public + private).
func sessMachines() []*backend.Machine {
	var sel []*backend.Machine
	for _, m := range backend.Fleet() {
		switch m.Name {
		case "ibmq_athens", "ibmq_rome", "ibmq_toronto":
			sel = append(sel, m)
		}
	}
	return sel
}

// sessSpecs builds the hand-crafted spec stream the golden hash pins.
func sessSpecs() []*cloud.JobSpec {
	var specs []*cloud.JobSpec
	for i := 0; i < 120; i++ {
		s := &cloud.JobSpec{
			SubmitTime: sessWindow.start.Add(time.Duration(i)*7*time.Hour + time.Duration(i*i%97)*time.Minute),
			User:       fmt.Sprintf("u-%d", i%7),
			Machine:    []string{"ibmq_athens", "ibmq_rome", "ibmq_toronto"}[i%3],
			BatchSize:  1 + i%40, Shots: 1024 + 512*(i%3),
			CircuitName: "qft", Width: 3 + i%5,
			TotalDepth: 50 + i, TotalGateOps: 200 + i, CXTotal: 40 + i, MemSlots: 4,
		}
		if i%11 == 0 {
			s.PatienceSec = 1800
		}
		specs = append(specs, s)
	}
	return specs
}

// TestSimulateGoldenTraces pins Simulate's output to the exact bytes
// the pre-session batch simulator produced: the compatibility contract
// for the Session refactor. If either hash moves, the cloud model's
// behavior changed.
func TestSimulateGoldenTraces(t *testing.T) {
	specs := workload.Generate(workload.Config{Seed: 99, TotalJobs: 400, Start: sessWindow.start, End: sessWindow.end})
	tr, err := cloud.Simulate(cloud.Config{Seed: 99, Start: sessWindow.start, End: sessWindow.end}, specs)
	if err != nil {
		t.Fatal(err)
	}
	const goldenA = "d313aa85e8a4d5309966bbe0751b6612a3f56edac0c33988f9dcbc8f73fe0daa"
	if h := traceHash(t, tr); h != goldenA || len(tr.Jobs) != 407 {
		t.Fatalf("workload-trace fingerprint moved: %d jobs, hash %s (want 407 jobs, %s)", len(tr.Jobs), h, goldenA)
	}

	trB, err := cloud.Simulate(cloud.Config{Seed: 7, Start: sessWindow.start, End: sessWindow.end, Machines: sessMachines()}, sessSpecs())
	if err != nil {
		t.Fatal(err)
	}
	const goldenB = "be3b28371f9a46a44698badf9959a0494f655107110700e16581989681c93886"
	if h := traceHash(t, trB); h != goldenB || len(trB.Jobs) != 120 {
		t.Fatalf("spec-trace fingerprint moved: %d jobs, hash %s (want 120 jobs, %s)", len(trB.Jobs), h, goldenB)
	}
}

// TestSessionTraceBitIdentical is the determinism property test: the
// Session API — serial, on a 4-worker pool, and with jobs submitted
// mid-run in arrival order while the session advances between
// submissions — produces byte-identical trace JSON to the batch
// Simulate call.
func TestSessionTraceBitIdentical(t *testing.T) {
	cfg := cloud.Config{Seed: 7, Start: sessWindow.start, End: sessWindow.end, Machines: sessMachines()}
	want := func() []byte {
		tr, err := cloud.Simulate(cfg, sessSpecs())
		if err != nil {
			t.Fatal(err)
		}
		return traceJSON(t, tr)
	}()

	variants := []struct {
		name    string
		workers int
		midRun  bool
	}{
		{"serial", 1, false},
		{"workers-4", 4, false},
		{"mid-run-submits", 2, true},
	}
	for _, v := range variants {
		c := cfg
		c.Workers = v.workers
		sess, err := cloud.Open(c)
		if err != nil {
			t.Fatal(err)
		}
		specs := sessSpecs()
		if v.midRun {
			// Replay the same arrival order online: a third of the jobs
			// are known up-front, the rest arrive one by one with the
			// session advancing (and queues being observed) in between.
			sort.SliceStable(specs, func(i, j int) bool { return specs[i].SubmitTime.Before(specs[j].SubmitTime) })
			cut := len(specs) / 3
			for _, s := range specs[:cut] {
				if _, err := sess.Submit(s); err != nil {
					t.Fatal(err)
				}
			}
			for i, s := range specs[cut:] {
				sess.AdvanceTo(s.SubmitTime)
				if i%5 == 0 {
					if _, err := sess.QueueState(s.Machine); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := sess.Submit(s); err != nil {
					t.Fatalf("mid-run submit %d: %v", i, err)
				}
				if i%9 == 0 {
					// Advance into the gap before the next arrival too,
					// exercising partial in-flight admissions.
					sess.AdvanceTo(s.SubmitTime.Add(30 * time.Minute))
				}
			}
		} else {
			for _, s := range specs {
				if _, err := sess.Submit(s); err != nil {
					t.Fatal(err)
				}
			}
		}
		tr, err := sess.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := traceJSON(t, tr); !bytes.Equal(got, want) {
			t.Fatalf("%s: session trace differs from batch Simulate", v.name)
		}
	}
}

// quietConfig silences the background population so session tests see
// only their own jobs.
func quietConfig(seed int64, machine string) cloud.Config {
	m, err := backend.FindMachine(backend.Fleet(), machine)
	if err != nil {
		panic(err)
	}
	return cloud.Config{
		Seed: seed, Start: sessWindow.start, End: sessWindow.end,
		Machines:   []*backend.Machine{m},
		Background: quietBackground(),
	}
}

func quietBackground() *cloud.BackgroundModel {
	bg := cloud.DefaultBackground()
	bg.PublicUtil, bg.PrivateUtil = 0, 0
	bg.RampFloor = 0
	return bg
}

func quietSpec(i int, machine string, at time.Time) *cloud.JobSpec {
	return &cloud.JobSpec{
		SubmitTime: at, User: fmt.Sprintf("s-%d", i), Machine: machine,
		BatchSize: 20, Shots: 4096, CircuitName: "qft4",
		Width: 4, TotalDepth: 400, TotalGateOps: 1200, CXTotal: 300, MemSlots: 4,
	}
}

func TestSubmitBehindFrontierRejected(t *testing.T) {
	cfg := quietConfig(3, "ibmq_rome")
	sess, err := cloud.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	at := sessWindow.start.Add(10 * 24 * time.Hour)
	sess.AdvanceTo(at)
	if _, err := sess.Submit(quietSpec(0, "ibmq_rome", at.Add(-time.Hour))); err == nil {
		t.Fatal("submit behind the frontier should fail")
	}
	// At the frontier itself is fine: the observation excludes it.
	if _, err := sess.Submit(quietSpec(1, "ibmq_rome", at)); err != nil {
		t.Fatal(err)
	}
	if err := cloud.IndexFleet(cfg).Check(quietSpec(1, "ibmq_rome", at)); err != nil {
		t.Fatalf("the fleet index refuses a spec the session accepted: %v", err)
	}
	// A machine of the default fleet that this session does not have is
	// as unknown as a name no fleet has, a batch or a shot count below 1
	// is one no trace record holds, and the index refuses each with
	// Submit's own error.
	for name, spec := range map[string]*cloud.JobSpec{
		"nope":        {Machine: "nope", SubmitTime: at, BatchSize: 1, Shots: 1},
		"ibmq_athens": {Machine: "ibmq_athens", SubmitTime: at, BatchSize: 1, Shots: 1},
		"batch -5":    {Machine: "ibmq_rome", SubmitTime: at, BatchSize: -5, Shots: 1},
		"shots 0":     {Machine: "ibmq_rome", SubmitTime: at, BatchSize: 1},
	} {
		_, err := sess.Submit(spec)
		if err == nil {
			t.Fatalf("%s: submit should fail", name)
		}
		if cerr := cloud.IndexFleet(cfg).Check(spec); cerr == nil || cerr.Error() != err.Error() {
			t.Fatalf("%s: the fleet index answers %v where Submit answers %v", name, cerr, err)
		}
	}
}

func TestSessionQueueStateLive(t *testing.T) {
	sess, err := cloud.Open(quietConfig(4, "ibmq_rome"))
	if err != nil {
		t.Fatal(err)
	}
	base := sessWindow.start.Add(24 * time.Hour)
	// A burst of five long jobs one second apart: the first occupies
	// the server well past the probe instant, the rest queue behind it.
	for i := 0; i < 5; i++ {
		s := quietSpec(i, "ibmq_rome", base.Add(time.Duration(i)*time.Second))
		s.BatchSize, s.Shots, s.TotalDepth = 900, 8192, 18000
		if _, err := sess.Submit(s); err != nil {
			t.Fatal(err)
		}
	}
	probe := base.Add(time.Minute)
	sess.AdvanceTo(probe)
	snap, err := sess.QueueState("ibmq_rome")
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Time.Equal(probe) {
		t.Fatalf("snapshot frontier = %v, want %v", snap.Time, probe)
	}
	if snap.Pending != 4 || snap.PendingStudy != 4 {
		t.Fatalf("pending = %d (study %d), want 4 queued behind the running job", snap.Pending, snap.PendingStudy)
	}
	if !snap.RunningUntil.After(probe) {
		t.Fatalf("running job should extend past the frontier, got %v", snap.RunningUntil)
	}
	if snap.BacklogSeconds <= 0 || snap.EstimatedWaitSeconds() <= snap.BacklogSeconds {
		t.Fatalf("estimated wait %v should exceed backlog %v (in-flight remainder)", snap.EstimatedWaitSeconds(), snap.BacklogSeconds)
	}
	if snap.MeanExecSeconds <= 0 {
		t.Fatal("mean service time missing from snapshot")
	}
	// Snapshots are read-only: probing again without advancing moves nothing.
	again, err := sess.QueueState("ibmq_rome")
	if err != nil {
		t.Fatal(err)
	}
	if again.Pending != 4 {
		t.Fatal("snapshot should be stable when the session has not advanced")
	}
	if _, err := sess.QueueState("nope"); err == nil {
		t.Fatal("unknown machine should fail")
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionCancel(t *testing.T) {
	sess, err := cloud.Open(quietConfig(5, "ibmq_rome"))
	if err != nil {
		t.Fatal(err)
	}
	base := sessWindow.start.Add(24 * time.Hour)
	var handles []*cloud.JobHandle
	for i := 0; i < 3; i++ {
		s := quietSpec(i, "ibmq_rome", base.Add(time.Duration(i)*time.Minute))
		if i == 0 {
			// The first job holds the server for a long while, so the
			// third is genuinely queued when it gets cancelled.
			s.BatchSize, s.Shots, s.TotalDepth = 900, 8192, 18000
		}
		h, err := sess.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Cancel the second job before the session reaches it at all.
	if err := sess.Cancel(handles[1]); err != nil {
		t.Fatal(err)
	}
	if err := sess.Cancel(handles[1]); err == nil {
		t.Fatal("double cancel should fail")
	}
	// A job cancelled while already queued stops counting as load.
	sess.AdvanceTo(base.Add(3 * time.Minute)) // first running, third queued
	if err := sess.Cancel(handles[2]); err != nil {
		t.Fatal(err)
	}
	snap, err := sess.QueueState("ibmq_rome")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Pending != 0 || snap.PendingStudy != 0 || snap.BacklogSeconds != 0 {
		t.Fatalf("withdrawn job still visible as load: %+v", snap)
	}
	// Let the remaining job finish, then cancelling is an error.
	sess.AdvanceTo(base.Add(10 * 24 * time.Hour))
	if err := sess.Cancel(handles[0]); err == nil {
		t.Fatal("cancelling a finished job should fail")
	}
	tr, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(tr.Jobs))
	}
	byUser := make(map[string]*trace.Job)
	for _, j := range tr.Jobs {
		byUser[j.User] = j
	}
	for _, u := range []string{"s-1", "s-2"} {
		if j := byUser[u]; j.Status != trace.StatusCancelled || j.ExecSeconds() != 0 {
			t.Fatalf("cancelled job %s should be CANCELLED with no exec time: %+v", u, j)
		}
	}
	if byUser["s-0"].Status == trace.StatusCancelled {
		t.Fatal("job s-0 should have run")
	}
}

func TestSessionObserveEvents(t *testing.T) {
	cfg := quietConfig(6, "ibmq_rome")
	sess, err := cloud.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := sess.Observe(cloud.EventFilter{StudyOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	base := sessWindow.start.Add(24 * time.Hour)
	for i := 0; i < n; i++ {
		if _, err := sess.Submit(quietSpec(i, "ibmq_rome", base.Add(time.Duration(i)*3*time.Hour))); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[cloud.EventKind]int)
	for ev := range events { // closes after Run drains the backlog
		if ev.Machine != "ibmq_rome" {
			t.Fatalf("unexpected machine %q in filtered stream", ev.Machine)
		}
		counts[ev.Kind]++
		switch ev.Kind {
		case cloud.EventEnqueue, cloud.EventStart:
			if ev.Handle == nil {
				t.Fatalf("study %s event without a handle", ev.Kind)
			}
		case cloud.EventDone, cloud.EventError, cloud.EventCancel:
			if ev.Job == nil {
				t.Fatalf("terminal %s event without a job record", ev.Kind)
			}
		}
	}
	if counts[cloud.EventEnqueue] != n {
		t.Fatalf("enqueue events = %d, want %d", counts[cloud.EventEnqueue], n)
	}
	terminal := counts[cloud.EventDone] + counts[cloud.EventError] + counts[cloud.EventCancel]
	if terminal != len(tr.Jobs) {
		t.Fatalf("terminal events = %d, want one per trace job (%d)", terminal, len(tr.Jobs))
	}
	if counts[cloud.EventStart] != counts[cloud.EventDone]+counts[cloud.EventError] {
		t.Fatalf("start events = %d, want one per executed job (%d)",
			counts[cloud.EventStart], counts[cloud.EventDone]+counts[cloud.EventError])
	}
	// Observing a closed session reports the sentinel instead of
	// silently subscribing to nothing.
	if _, err := sess.Observe(cloud.EventFilter{}); err != cloud.ErrSessionClosed {
		t.Fatalf("observe after close: err = %v, want ErrSessionClosed", err)
	}
}

// TestSessionObserveBackgroundStream checks the unfiltered stream
// carries the modeled population too: on a busy public machine the
// background enqueue/terminal traffic dwarfs the study jobs.
func TestSessionObserveBackgroundStream(t *testing.T) {
	m, err := backend.FindMachine(backend.Fleet(), "ibmq_athens")
	if err != nil {
		t.Fatal(err)
	}
	cfg := cloud.Config{
		Seed: 8, Start: sessWindow.start, End: sessWindow.start.AddDate(0, 0, 14),
		Machines: []*backend.Machine{m},
	}
	sess, err := cloud.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events, err := sess.Observe(cloud.EventFilter{Kinds: []cloud.EventKind{cloud.EventEnqueue, cloud.EventPendingSample}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	bg, samples := 0, 0
	for ev := range events {
		switch {
		case ev.Kind == cloud.EventPendingSample:
			samples++
		case ev.Background:
			bg++
		}
	}
	if bg < 100 {
		t.Fatalf("background enqueue events = %d, want a busy public stream", bg)
	}
	if samples < 20 {
		t.Fatalf("pending-sample events = %d, want the 6h cadence", samples)
	}
}
