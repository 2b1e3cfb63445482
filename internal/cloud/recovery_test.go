package cloud_test

import (
	"bytes"
	"slices"
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
// and checks the retry policy's promises against the session's counts:
// the per-user retry budget holds, and the conservation laws
// (enqueue ≡ start+cancel, start ≡ done+error+retry, retry ≡ requeue)
// balance exactly. The per-job attempt cap is TestRetryAttemptCap's,
// the backoff bound TestRetryBackoffBounded's.
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
			// hard global cap on study retries in this scenario.
			BudgetPerUser: 12,
		}
		cfg.Retry = policy
		sess, err := cloud.Open(cfg)
		if err != nil {
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
		stats := sess.Stats()
		study := stats[0].Study
		if study.Retry == 0 {
			t.Fatalf("seed %d: flaky fleet produced no retries; scenario too tame to test anything", seed)
		}
		if study.Retry > int64(policy.BudgetPerUser) {
			t.Fatalf("seed %d: %d retries charged to one user, budget is %d",
				seed, study.Retry, policy.BudgetPerUser)
		}
		checkConservation(t, stats)
	}
}

// TestRetryBackoffBounded: every retry delay lies in (0, MaxBackoff],
// whatever the attempt and the job, with or without jitter.
func TestRetryBackoffBounded(t *testing.T) {
	for _, p := range []*cloud.RetryPolicy{
		{MaxAttempts: 3, BaseBackoff: 5 * time.Minute, MaxBackoff: 20 * time.Minute, JitterFrac: 0.4},
		{MaxAttempts: 8, BaseBackoff: time.Second, MaxBackoff: time.Minute, JitterFrac: 0.99},
		{MaxAttempts: 5, BaseBackoff: 10 * time.Minute, MaxBackoff: time.Hour, JitterFrac: -1},
		{}, // the defaults
	} {
		maxAttempts, maxSec := p.MaxAttempts, p.MaxBackoff.Seconds()
		if maxAttempts == 0 {
			maxAttempts, maxSec = 3, time.Hour.Seconds()
		}
		for attempt := 1; attempt < maxAttempts; attempt++ {
			for id := int64(1); id <= 200; id++ {
				if d := p.Backoff(attempt, 7, 11, id); !(d > 0 && d <= maxSec) {
					t.Fatalf("policy %+v: attempt %d of job %d waits %gs, want (0, %g]", p, attempt, id, d, maxSec)
				}
			}
		}
	}
}

// checkConservation checks the laws each machine's counts keep once
// its session has run to the end of the window with no job cancelled
// before admission: per population, enqueue ≡ start+cancel,
// start ≡ done+error+retry and retry ≡ requeue; per machine,
// machine-down ≡ machine-up.
func checkConservation(t *testing.T, stats []cloud.MachineCounts) {
	t.Helper()
	for i, m := range stats {
		for _, c := range []cloud.Counts{m.Study, m.Background} {
			if c.Enqueue != c.Start+c.Cancels() {
				t.Fatalf("machine %d: enqueue ≡ start+cancel broken: %d vs %d", i, c.Enqueue, c.Start+c.Cancels())
			}
			if c.Start != c.Done+c.Error+c.Retry {
				t.Fatalf("machine %d: start ≡ done+error+retry broken: %d vs %d", i, c.Start, c.Done+c.Error+c.Retry)
			}
			if c.Retry != c.Requeue {
				t.Fatalf("machine %d: retry ≡ requeue broken: %d vs %d", i, c.Retry, c.Requeue)
			}
		}
		if m.MachineDown != m.MachineUp {
			t.Fatalf("machine %d: %d downs vs %d ups (finalize must announce every boundary)", i, m.MachineDown, m.MachineUp)
		}
	}
}

// TestFaultOutageEventsConservation runs the full chaos profile and
// checks that outages happen and every machine's counts keep the
// conservation laws under every fault mechanism at once.
func TestFaultOutageEventsConservation(t *testing.T) {
	cfg := faultConfig(31, 2)
	sess, err := cloud.Open(cfg)
	if err != nil {
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
	stats := sess.Stats()
	var downs int64
	for _, m := range stats {
		downs += m.MachineDown
	}
	if downs == 0 {
		t.Fatal("chaos profile produced no outages")
	}
	checkConservation(t, stats)
}

// TestSessionObserveInLine pins Stats on a faulted multi-machine
// session: the counts read after each weekly AdvanceTo, and after Run,
// are the same at one worker and at four, and the finished counts keep
// the conservation laws.
func TestSessionObserveInLine(t *testing.T) {
	run := func(workers int) [][]cloud.MachineCounts {
		sess, err := cloud.Open(faultConfig(31, workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range faultSpecs(31) {
			if _, err := sess.SubmitRetried(s, 0); err != nil {
				t.Fatal(err)
			}
		}
		var steps [][]cloud.MachineCounts
		for at := sessWindow.start; at.Before(sessWindow.end); at = at.AddDate(0, 0, 7) {
			sess.AdvanceTo(at)
			steps = append(steps, sess.Stats())
		}
		if _, err := sess.Run(); err != nil {
			t.Fatal(err)
		}
		return append(steps, sess.Stats())
	}
	want := run(1)
	got := run(4)
	if len(got) != len(want) {
		t.Fatalf("%d reads at 4 workers, %d serially", len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("read %d: %+v at 4 workers, %+v serially", i, got[i], want[i])
		}
	}
	final := got[len(got)-1]
	var retries, downs int64
	for _, m := range final {
		retries += m.Study.Retry + m.Background.Retry
		downs += m.MachineDown
	}
	if retries == 0 || downs == 0 {
		t.Fatal("chaos profile produced no retries or no outages")
	}
	checkConservation(t, final)
}

// TestSessionCloseHardened pins the close-twice and use-after-close
// semantics: sentinel errors everywhere, no panics, and the counts
// still readable.
func TestSessionCloseHardened(t *testing.T) {
	sess, err := cloud.Open(quietConfig(2, "ibmq_rome"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := sess.Close(); err != cloud.ErrSessionClosed {
		t.Fatalf("second close: err = %v, want ErrSessionClosed", err)
	}
	if got := sess.Stats(); len(got) != 1 || got[0] != (cloud.MachineCounts{}) {
		t.Fatalf("stats after close = %+v, want one machine's zero counts", got)
	}
	if _, err := sess.Submit(quietSpec(0, "ibmq_rome", sessWindow.start)); err != cloud.ErrSessionClosed {
		t.Fatalf("submit after close: err = %v, want ErrSessionClosed", err)
	}
	if _, err := sess.Run(); err != cloud.ErrSessionClosed {
		t.Fatalf("run after close: err = %v, want ErrSessionClosed", err)
	}
}

// TestSessionEventStreamGolden pins a faulted session whose study jobs
// end every way a job can: done, error, retried, and cancelled by the
// user (before admission and while queued), by patience and by the
// window closing. Each machine's lifecycle counts are pinned as a
// countVector, and the trace as the SHA-256 of its JSON. If a vector
// moves, a job took another path; if the hash moves, a record changed.
func TestSessionEventStreamGolden(t *testing.T) {
	cfg := faultConfig(31, 2)
	sess, err := cloud.Open(cfg)
	if err != nil {
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
	tr, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}

	got := make(map[string]countVector)
	var fleet countVector
	for i, mc := range sess.Stats() {
		v := vectorOf(mc)
		got[sess.Machines()[i].Name] = v
		for k := range fleet {
			fleet[k] += v[k]
		}
	}
	want := map[string]countVector{
		"ibmq_athens": {
			188, 161, 133, 5, 23, 23, 28, 0, 9, 4,
			55986, 45507, 38934, 2009, 4564, 4564, 0, 0, 9370, 1109,
			5, 236, 9, 9},
		"ibmq_rome": {
			22, 22, 21, 1, 0, 0, 1, 0, 0, 0,
			28245, 27504, 23869, 1368, 2267, 2267, 0, 0, 741, 0,
			3, 235, 10, 10},
		"ibmq_toronto": {
			40, 37, 32, 0, 5, 5, 6, 0, 0, 1,
			22707, 22236, 19275, 961, 2000, 2000, 0, 0, 401, 70,
			3, 236, 12, 12},
	}
	for m, w := range want {
		if got[m] != w {
			t.Errorf("%s: counts %v, want %v", m, got[m], w)
		}
	}
	if h, w := traceHash(t, tr), "2036462797fad1ebc26fac17072434d174584808f7c8c3b8f79ef400af888039"; h != w {
		t.Errorf("trace hash %s, want %s", h, w)
	}
	for _, c := range []struct {
		reason cloud.CancelReason
		at     int
	}{{cloud.CancelUser, 6}, {cloud.CancelPatience, 8}, {cloud.CancelWindow, 9}} {
		if fleet[c.at] == 0 {
			t.Fatalf("no study job was cancelled with reason %q (study counts %v)", c.reason, fleet[:10])
		}
	}
	// A job cancelled before admission was never enqueued, so study
	// cancels beyond enqueue − start show that some cancel came before
	// admission.
	if cancels, queued := fleet[6]+fleet[7]+fleet[8]+fleet[9], fleet[0]-fleet[1]; cancels <= queued {
		t.Fatalf("study cancels %d, enqueue − start %d: no job was cancelled before admission", cancels, queued)
	}
}

// countVector lays out one machine's lifecycle counts: for study jobs
// and then background jobs, enqueue, start, done, error, retry, requeue
// and cancels by reason (user, preempted, patience, window); then
// downtime, pending-sample, machine-down and machine-up.
type countVector [24]int64

func vectorOf(mc cloud.MachineCounts) countVector {
	var v countVector
	for k, c := range []cloud.Counts{mc.Study, mc.Background} {
		copy(v[10*k:], []int64{c.Enqueue, c.Start, c.Done, c.Error, c.Retry, c.Requeue,
			c.CancelUser, c.CancelPreempted, c.CancelPatience, c.CancelWindow})
	}
	copy(v[20:], []int64{mc.Downtime, mc.PendingSample, mc.MachineDown, mc.MachineUp})
	return v
}
