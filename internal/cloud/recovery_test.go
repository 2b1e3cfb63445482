package cloud_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"qcloud/internal/cloud"
	"qcloud/internal/fault"
	"qcloud/internal/workload"
)

// chaosProfile is an aggressive fault scenario: frequent outages,
// elevated transient rates, bursts, staleness waves and flaky submits
// all at once, so every injector path is exercised in one run.
func chaosProfile() *fault.Profile {
	return &fault.Profile{
		OutageMeanGapDays:  6,
		OutageMeanHours:    8,
		OutageMaxHours:     36,
		TransientErrorRate: 0.08,
		BurstMeanGapDays:   10,
		BurstMeanHours:     5,
		BurstErrorRate:     0.6,
		StaleMeanGapDays:   8,
		StaleMeanHours:     12,
		StaleErrorFactor:   5,
		SubmitErrorRate:    0.02,
	}
}

func chaosRetry() *cloud.RetryPolicy {
	return &cloud.RetryPolicy{
		MaxAttempts: 4,
		BaseBackoff: 2 * time.Minute,
		MaxBackoff:  45 * time.Minute,
		JitterFrac:  0.3,
	}
}

func faultConfig(seed int64, workers int) cloud.Config {
	return cloud.Config{
		Seed: seed, Start: sessWindow.start, End: sessWindow.end,
		Machines: sessMachines(), Workers: workers,
		Faults: chaosProfile(), Retry: chaosRetry(),
	}
}

func faultSpecs(seed int64) []*cloud.JobSpec {
	return workload.Generate(workload.Config{
		Seed: seed, TotalJobs: 250,
		Start: sessWindow.start, End: sessWindow.end,
		Machines: sessMachines(),
	})
}

// TestFaultTraceBitIdenticalAcrossWorkers: with the full chaos profile
// enabled, the trace is still a pure function of the seed — serial and
// 4-worker runs hash identically, and the batch Simulate wrapper
// agrees with a hand-driven session.
func TestFaultTraceBitIdenticalAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{3, 11, 27} {
		specs := faultSpecs(seed)
		var want []byte
		for _, workers := range []int{1, 4} {
			cfg := faultConfig(seed, workers)
			tr, err := cloud.Simulate(cfg, specs)
			if err != nil {
				t.Fatal(err)
			}
			got := traceJSON(t, tr)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("seed %d: faulted trace differs between worker counts", seed)
			}
		}
		// A faulted fleet must actually look different from a calm one,
		// or the injector is wired to nothing.
		calm, err := cloud.Simulate(cloud.Config{
			Seed: seed, Start: sessWindow.start, End: sessWindow.end,
			Machines: sessMachines(),
		}, specs)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(traceJSON(t, calm), want) {
			t.Fatalf("seed %d: fault injection changed nothing", seed)
		}
	}
}

// TestCheckpointRestoreRecoveryReplay is the crash-replay property:
// killing a faulted session at an arbitrary AdvanceTo frontier,
// serializing its checkpoint through the codec, and restoring into a
// fresh session (at a different worker count) reproduces the
// uninterrupted run's trace byte-for-byte.
func TestCheckpointRestoreRecoveryReplay(t *testing.T) {
	const seed = 17
	specs := faultSpecs(seed)
	golden := func() []byte {
		tr, err := cloud.Simulate(faultConfig(seed, 1), specs)
		if err != nil {
			t.Fatal(err)
		}
		return traceJSON(t, tr)
	}()

	windowLen := sessWindow.end.Sub(sessWindow.start)
	for _, frac := range []float64{0.2, 0.5, 0.8} {
		frontier := sessWindow.start.Add(time.Duration(float64(windowLen) * frac))
		sess, err := cloud.Open(faultConfig(seed, 2))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range specs {
			if _, err := sess.SubmitRetried(s, 0); err != nil {
				t.Fatal(err)
			}
		}
		sess.AdvanceTo(frontier)
		ck, err := sess.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		// The "crash": the original session is abandoned. The snapshot
		// round-trips through its serialized bytes.
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cloud.WriteCheckpoint(&buf, ck); err != nil {
			t.Fatal(err)
		}
		decoded, err := cloud.ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := cloud.Restore(faultConfig(seed, 4), decoded)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := restored.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(traceJSON(t, tr), golden) {
			t.Fatalf("restore at %.0f%% of the window diverged from the uninterrupted run", frac*100)
		}
	}
}

// TestCheckpointChainedRecovery kills and restores the same run twice
// (checkpoint → restore → advance → checkpoint → restore), proving
// snapshots compose: a restored session is as checkpointable as the
// original.
func TestCheckpointChainedRecovery(t *testing.T) {
	const seed = 5
	specs := faultSpecs(seed)
	golden := func() []byte {
		tr, err := cloud.Simulate(faultConfig(seed, 1), specs)
		if err != nil {
			t.Fatal(err)
		}
		return traceJSON(t, tr)
	}()

	sess, err := cloud.Open(faultConfig(seed, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		if _, err := sess.SubmitRetried(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip := func(s *cloud.Session, workers int) *cloud.Session {
		t.Helper()
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := cloud.WriteCheckpoint(&buf, ck); err != nil {
			t.Fatal(err)
		}
		decoded, err := cloud.ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		restored, err := cloud.Restore(faultConfig(seed, workers), decoded)
		if err != nil {
			t.Fatal(err)
		}
		return restored
	}
	sess.AdvanceTo(sessWindow.start.AddDate(0, 0, 13))
	sess = roundTrip(sess, 4)
	sess.AdvanceTo(sessWindow.start.AddDate(0, 0, 41))
	sess = roundTrip(sess, 2)
	tr, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traceJSON(t, tr), golden) {
		t.Fatal("doubly-restored run diverged from the uninterrupted run")
	}
}

// TestCheckpointRestoreValidation pins the guard rails: a checkpoint
// only restores into the configuration it was taken under.
func TestCheckpointRestoreValidation(t *testing.T) {
	sess, err := cloud.Open(faultConfig(23, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ck, err := sess.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	bad := faultConfig(24, 1)
	if _, err := cloud.Restore(bad, ck); err == nil {
		t.Fatal("restore with a different seed should fail")
	}
	noFaults := faultConfig(23, 1)
	noFaults.Faults = nil
	if _, err := cloud.Restore(noFaults, ck); err == nil {
		t.Fatal("restore without the fault profile should fail")
	}
	otherRetry := faultConfig(23, 1)
	otherRetry.Retry = &cloud.RetryPolicy{MaxAttempts: 9}
	if _, err := cloud.Restore(otherRetry, ck); err == nil {
		t.Fatal("restore with a different retry policy should fail")
	}
	if _, err := cloud.Restore(faultConfig(23, 1), ck); err != nil {
		t.Fatalf("restore with the original config failed: %v", err)
	}
	// A closed session cannot be checkpointed.
	done, err := cloud.Open(faultConfig(23, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := done.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := done.Checkpoint(); err != cloud.ErrSessionClosed {
		t.Fatalf("checkpoint after close: err = %v, want ErrSessionClosed", err)
	}
}

// TestRetryBackoffRecoveryProperty drives a flaky single-machine fleet
// and checks the retry policy's promises against the event stream:
// per-job attempts stay within MaxAttempts, every announced backoff
// respects the cap, the per-user retry budget holds, and the extended
// conservation laws (enqueue ≡ start+cancel, start ≡ done+error+retry,
// retry ≡ requeue) balance exactly.
func TestRetryBackoffRecoveryProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := quietConfig(seed, "ibmq_rome")
		cfg.Faults = &fault.Profile{TransientErrorRate: 0.45}
		policy := &cloud.RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: 5 * time.Minute,
			MaxBackoff:  20 * time.Minute,
			JitterFrac:  0.4,
			// All study jobs below share one user, so the budget is a
			// hard global cap in this scenario.
			BudgetPerUser: 12,
		}
		cfg.Retry = policy
		sess, err := cloud.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var events []cloud.Event
		if err := sess.Observe(func(ev cloud.Event) { events = append(events, ev) }); err != nil {
			t.Fatal(err)
		}
		base := sessWindow.start.Add(24 * time.Hour)
		const n = 160
		for i := 0; i < n; i++ {
			s := quietSpec(i, "ibmq_rome", base.Add(time.Duration(i)*4*time.Hour))
			s.User = "u-budget"
			if _, err := sess.SubmitRetried(s, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		counts := make(map[cloud.EventKind]int)
		attempts := make(map[*cloud.JobHandle]int)
		maxDelay := time.Duration(float64(policy.MaxBackoff))
		for _, ev := range events {
			counts[ev.Kind]++
			switch ev.Kind {
			case cloud.EventRetry:
				if ev.Handle != nil {
					attempts[ev.Handle]++
				}
				delay := ev.NextAttemptAt.Sub(ev.Time)
				if delay <= 0 || delay > maxDelay+time.Second {
					t.Fatalf("seed %d: retry backoff %v violates (0, %v]", seed, delay, maxDelay)
				}
				if ev.Attempt < 1 || ev.Attempt >= policy.MaxAttempts {
					t.Fatalf("seed %d: retry announced attempt %d outside [1, %d)", seed, ev.Attempt, policy.MaxAttempts)
				}
			case cloud.EventStart:
				if ev.Attempt >= policy.MaxAttempts {
					t.Fatalf("seed %d: start attempt %d exceeds budget %d", seed, ev.Attempt, policy.MaxAttempts)
				}
			}
		}
		if counts[cloud.EventRetry] == 0 {
			t.Fatalf("seed %d: flaky fleet produced no retries; scenario too tame to test anything", seed)
		}
		for h, k := range attempts {
			if k > policy.MaxAttempts-1 {
				t.Fatalf("seed %d: job %p retried %d times, budget is %d attempts total",
					seed, h, k, policy.MaxAttempts)
			}
		}
		if counts[cloud.EventRetry] > policy.BudgetPerUser {
			t.Fatalf("seed %d: %d retries charged to one user, budget is %d",
				seed, counts[cloud.EventRetry], policy.BudgetPerUser)
		}
		if counts[cloud.EventRequeue] != counts[cloud.EventRetry] {
			t.Fatalf("seed %d: retry ≡ requeue broken: %d retries, %d requeues",
				seed, counts[cloud.EventRetry], counts[cloud.EventRequeue])
		}
		if got, want := counts[cloud.EventEnqueue], counts[cloud.EventStart]+counts[cloud.EventCancel]; got != want {
			t.Fatalf("seed %d: enqueue ≡ start+cancel broken: %d vs %d", seed, got, want)
		}
		if got, want := counts[cloud.EventStart], counts[cloud.EventDone]+counts[cloud.EventError]+counts[cloud.EventRetry]; got != want {
			t.Fatalf("seed %d: start ≡ done+error+retry broken: %d vs %d", seed, got, want)
		}
	}
}

// TestFaultOutageEventsConservation runs the full chaos profile with
// an observer attached and checks machine-down/up pairing plus the
// conservation laws under every fault mechanism at once.
func TestFaultOutageEventsConservation(t *testing.T) {
	cfg := faultConfig(31, 2)
	sess, err := cloud.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var events []cloud.Event
	if err := sess.Observe(func(ev cloud.Event) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	for _, s := range faultSpecs(31) {
		if _, err := sess.SubmitRetried(s, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	counts := make(map[cloud.EventKind]int)
	downs := make(map[string]int)
	ups := make(map[string]int)
	for _, ev := range events {
		counts[ev.Kind]++
		switch ev.Kind {
		case cloud.EventMachineDown:
			downs[ev.Machine]++
			if !ev.Downtime[1].After(ev.Downtime[0]) {
				t.Fatalf("empty outage window on %s", ev.Machine)
			}
		case cloud.EventMachineUp:
			ups[ev.Machine]++
		}
	}
	if counts[cloud.EventMachineDown] == 0 {
		t.Fatal("chaos profile produced no outages")
	}
	for m, d := range downs {
		if ups[m] != d {
			t.Fatalf("machine %s: %d downs vs %d ups (finalize must announce every boundary)", m, d, ups[m])
		}
	}
	if got, want := counts[cloud.EventEnqueue], counts[cloud.EventStart]+counts[cloud.EventCancel]; got != want {
		t.Fatalf("enqueue ≡ start+cancel broken under chaos: %d vs %d", got, want)
	}
	if got, want := counts[cloud.EventStart], counts[cloud.EventDone]+counts[cloud.EventError]+counts[cloud.EventRetry]; got != want {
		t.Fatalf("start ≡ done+error+retry broken under chaos: %d vs %d", got, want)
	}
	if counts[cloud.EventRequeue] != counts[cloud.EventRetry] {
		t.Fatalf("retry ≡ requeue broken under chaos: %d vs %d", counts[cloud.EventRetry], counts[cloud.EventRequeue])
	}
}

// TestSessionObserveInLine pins the Observe contract on a faulted
// multi-machine session at four workers: callbacks never overlap, each
// has returned by the time AdvanceTo returns, every machine's events
// arrive in the order a serial run emits them, and the conservation
// laws hold.
func TestSessionObserveInLine(t *testing.T) {
	type step struct {
		Kind    cloud.EventKind
		Time    time.Time
		Attempt int
	}
	run := func(workers int) (map[string][]step, map[cloud.EventKind]int) {
		sess, err := cloud.Open(faultConfig(31, workers))
		if err != nil {
			t.Fatal(err)
		}
		var inFlight atomic.Int32
		var overlapped atomic.Bool
		seqs := make(map[string][]step)
		counts := make(map[cloud.EventKind]int)
		err = sess.Observe(func(ev cloud.Event) {
			if inFlight.Add(1) != 1 {
				overlapped.Store(true)
			}
			seqs[ev.Machine] = append(seqs[ev.Machine], step{ev.Kind, ev.Time, ev.Attempt})
			counts[ev.Kind]++
			inFlight.Add(-1)
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range faultSpecs(31) {
			if _, err := sess.SubmitRetried(s, 0); err != nil {
				t.Fatal(err)
			}
		}
		for at := sessWindow.start; at.Before(sessWindow.end); at = at.AddDate(0, 0, 7) {
			sess.AdvanceTo(at)
			if n := inFlight.Load(); n != 0 {
				t.Fatalf("workers=%d: %d callbacks still running after AdvanceTo returned", workers, n)
			}
		}
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		if overlapped.Load() {
			t.Fatalf("workers=%d: an Observe callback was entered while another was running", workers)
		}
		return seqs, counts
	}
	want, _ := run(1)
	got, counts := run(4)
	if len(got) != len(want) {
		t.Fatalf("events from %d machines at 4 workers, %d serially", len(got), len(want))
	}
	for m, seq := range want {
		g := got[m]
		if len(g) != len(seq) {
			t.Fatalf("machine %s: %d events at 4 workers, %d serially", m, len(g), len(seq))
		}
		for i := range seq {
			if g[i].Kind != seq[i].Kind || !g[i].Time.Equal(seq[i].Time) || g[i].Attempt != seq[i].Attempt {
				t.Fatalf("machine %s event %d: %+v at 4 workers, %+v serially", m, i, g[i], seq[i])
			}
		}
	}
	if counts[cloud.EventRetry] == 0 || counts[cloud.EventMachineDown] == 0 {
		t.Fatal("chaos profile produced no retries or no outages")
	}
	if got, want := counts[cloud.EventEnqueue], counts[cloud.EventStart]+counts[cloud.EventCancel]; got != want {
		t.Fatalf("enqueue ≡ start+cancel broken: %d vs %d", got, want)
	}
	if got, want := counts[cloud.EventStart], counts[cloud.EventDone]+counts[cloud.EventError]+counts[cloud.EventRetry]; got != want {
		t.Fatalf("start ≡ done+error+retry broken: %d vs %d", got, want)
	}
	if counts[cloud.EventRequeue] != counts[cloud.EventRetry] {
		t.Fatalf("retry ≡ requeue broken: %d vs %d", counts[cloud.EventRetry], counts[cloud.EventRequeue])
	}
	if counts[cloud.EventMachineDown] != counts[cloud.EventMachineUp] {
		t.Fatalf("machine-down ≡ machine-up broken: %d vs %d", counts[cloud.EventMachineDown], counts[cloud.EventMachineUp])
	}
}

// TestSessionCloseHardened pins the close-twice and use-after-close
// semantics: sentinel errors everywhere, no panics with an observer
// attached.
func TestSessionCloseHardened(t *testing.T) {
	sess, err := cloud.Open(quietConfig(2, "ibmq_rome"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Observe(func(cloud.Event) {}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := sess.Close(); err != cloud.ErrSessionClosed {
		t.Fatalf("second close: err = %v, want ErrSessionClosed", err)
	}
	if err := sess.Observe(func(cloud.Event) {}); err != cloud.ErrSessionClosed {
		t.Fatalf("observe after close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.Submit(quietSpec(0, "ibmq_rome", sessWindow.start)); err != cloud.ErrSessionClosed {
		t.Fatalf("submit after close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.Run(); err != cloud.ErrSessionClosed {
		t.Fatalf("run after close: err = %v, want ErrSessionClosed", err)
	}
}

// TestSessionEventStreamGolden pins each machine's event stream of a
// faulted session whose study jobs end every way a job can: done,
// error, retried, and cancelled by the user (before admission and while
// queued), by patience and by the window closing. Every event's kind,
// instant, background flag, queue length, attempt, cancel reason,
// whether it carries a handle, and the ID its trace record ends up with
// goes into the machine's SHA-256. If a hash moves, the order or the
// content of the stream changed.
func TestSessionEventStreamGolden(t *testing.T) {
	cfg := faultConfig(31, 2)
	sess, err := cloud.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := make(map[string][]cloud.Event)
	if err := sess.Observe(func(ev cloud.Event) { events[ev.Machine] = append(events[ev.Machine], ev) }); err != nil {
		t.Fatal(err)
	}
	specs := faultSpecs(31)
	// Three jobs each machine cannot start before the window closes.
	for i, m := range sessMachines() {
		specs = append(specs, &cloud.JobSpec{
			SubmitTime: sessWindow.end.Add(-time.Duration(i+1) * time.Minute),
			User:       "late", Machine: m.Name, BatchSize: 4, Shots: 1024,
			CircuitName: "qft", Width: 4, TotalDepth: 60, TotalGateOps: 200, CXTotal: 40, MemSlots: 4,
		})
	}
	var handles []*cloud.JobHandle
	for _, s := range specs {
		h, err := sess.SubmitRetried(s, 0)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	// Every 9th job is withdrawn the first time a step finds it queued,
	// every 13th the first time one finds it not yet admitted.
	for at := sessWindow.start.Add(6 * time.Hour); at.Before(sessWindow.end); at = at.Add(6 * time.Hour) {
		sess.AdvanceTo(at)
		for i, h := range handles {
			st, _ := sess.JobStatus(h)
			if (i%9 == 0 && st == cloud.JobStateQueued) || (i%13 == 0 && st == cloud.JobStatePending) {
				if err := sess.Cancel(h); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}

	reasons := make(map[cloud.CancelReason]int)
	enqueued := make(map[*cloud.JobHandle]bool)
	var userQueued, userPending int
	got := make(map[string]string)
	for m, evs := range events {
		h := sha256.New()
		for _, ev := range evs {
			var id int64
			if ev.Job != nil {
				id = ev.Job.ID
			}
			fmt.Fprintf(h, "%s|%d|%t|%d|%d|%s|%t|%d\n", ev.Kind, ev.Time.UnixNano(), ev.Background,
				ev.Pending, ev.Attempt, ev.Reason, ev.Handle != nil, id)
			switch {
			case ev.Handle == nil:
			case ev.Kind == cloud.EventEnqueue:
				enqueued[ev.Handle] = true
			case ev.Kind == cloud.EventCancel:
				reasons[ev.Reason]++
				if ev.Reason == cloud.CancelUser && enqueued[ev.Handle] {
					userQueued++
				} else if ev.Reason == cloud.CancelUser {
					userPending++
				}
			}
		}
		got[m] = fmt.Sprintf("%x", h.Sum(nil))
	}
	for _, r := range []cloud.CancelReason{cloud.CancelUser, cloud.CancelPatience, cloud.CancelWindow} {
		if reasons[r] == 0 {
			t.Fatalf("no study job was cancelled with reason %q (study cancels by reason: %v)", r, reasons)
		}
	}
	if userQueued == 0 || userPending == 0 {
		t.Fatalf("user cancels: %d of queued jobs, %d before admission; want some of each", userQueued, userPending)
	}
	want := map[string]string{
		"ibmq_athens":  "49cff53da632a712a58f82b4ae54e8333136401ec795d34bbd04548e7e413d43",
		"ibmq_rome":    "1610d54838e49b4c71ee65c203a9bd709f0dfdefb3bbdca85af845354fd05e89",
		"ibmq_toronto": "9aa0d7f0d9fc1fa436092bb2e5b99ce115db3b31f3d1f4c33e88e07501765924",
	}
	for m, w := range want {
		if got[m] != w {
			t.Errorf("%s: event stream hash %s, want %s", m, got[m], w)
		}
	}
	t.Logf("study cancels by reason: %v; user cancels %d queued, %d before admission", reasons, userQueued, userPending)
}
