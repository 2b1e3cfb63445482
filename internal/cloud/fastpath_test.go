package cloud_test

import (
	"bytes"
	"testing"
	"time"

	"qcloud/internal/cloud"
	"qcloud/internal/workload"
)

// bgNamedConfig is the chaos scenario with a per-user retry budget, so
// transient failures resolve user names back to fair-share accumulators
// (requeue) and budget counters (retrySpent).
func bgNamedConfig(workers int) cloud.Config {
	cfg := faultConfig(13, workers)
	retry := *chaosRetry()
	retry.BudgetPerUser = 2
	cfg.Retry = &retry
	return cfg
}

// bgNamedSpecs is the hand-crafted spec stream with study users named
// like background users: bg-0 and bg-7 share the accumulators of
// background users 0 and 7, bg-99999 lies outside the pool, and bg-007
// is a distinct name that must not alias bg-7.
func bgNamedSpecs() []*cloud.JobSpec {
	specs := sessSpecs()
	for i, s := range specs {
		switch i % 8 {
		case 0, 4:
			s.User = "bg-0"
		case 1, 5:
			s.User = "bg-7"
		case 2, 6:
			s.User = "bg-99999"
		case 3:
			s.User = "bg-007"
		}
	}
	return specs
}

// TestBackgroundNamedStudyUsersGolden pins the trace of a faulted,
// retrying run whose study users collide with background user names.
// The hash was recorded from the string-keyed usage map the dense
// per-machine accumulators replaced: a study user literally named
// bg-<n> must keep charging the same account as background user n.
func TestBackgroundNamedStudyUsersGolden(t *testing.T) {
	tr, err := cloud.Simulate(bgNamedConfig(1), bgNamedSpecs())
	if err != nil {
		t.Fatal(err)
	}
	const golden = "5819a10a56ca1af69bd1406ab82a5a3b98320e79e5c910872b9ded5ebf3ce2b3"
	if h := traceHash(t, tr); h != golden || len(tr.Jobs) != 120 {
		t.Fatalf("bg-named study trace moved: %d jobs, hash %s (want 120 jobs, %s)", len(tr.Jobs), h, golden)
	}
}

// TestCheckpointRestoreDenseAccounts kills the bg-named scenario
// mid-run: the restored session (dense accumulators rebuilt from names,
// queue records recycled since) must finish byte-identical to the
// uninterrupted run. (That each machine's serialized accumulators are
// one strictly ascending list of names is the decoder's to enforce:
// restore refuses any other.)
func TestCheckpointRestoreDenseAccounts(t *testing.T) {
	want := func() []byte {
		tr, err := cloud.Simulate(bgNamedConfig(1), bgNamedSpecs())
		if err != nil {
			t.Fatal(err)
		}
		return traceJSON(t, tr)
	}()
	windowLen := sessWindow.end.Sub(sessWindow.start)
	for _, frac := range []float64{0.3, 0.7} {
		sess, err := cloud.Open(bgNamedConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range bgNamedSpecs() {
			if _, err := sess.SubmitRetried(s, 0); err != nil {
				t.Fatal(err)
			}
		}
		sess.AdvanceTo(sessWindow.start.Add(time.Duration(float64(windowLen) * frac)))
		ck, err := sess.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
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
		restored, err := cloud.Restore(bgNamedConfig(4), decoded)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := restored.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(traceJSON(t, tr), want) {
			t.Fatalf("restore at %.0f%% of the window diverged from the uninterrupted run", frac*100)
		}
	}
}

// TestFleetTraceIdenticalAcrossWorkerCounts runs the whole fleet, whose
// machines Session.Run hands to workers heaviest first rather than in
// fleet order: results are slot-indexed, so the bytes cannot depend on
// the order or on how many workers share it.
func TestFleetTraceIdenticalAcrossWorkerCounts(t *testing.T) {
	specs := workload.Generate(workload.Config{Seed: 21, TotalJobs: 300, Start: sessWindow.start, End: sessWindow.end})
	var want []byte
	for _, workers := range []int{1, 2, 4} {
		tr, err := cloud.Simulate(cloud.Config{Seed: 21, Start: sessWindow.start, End: sessWindow.end, Workers: workers}, specs)
		if err != nil {
			t.Fatal(err)
		}
		got := traceJSON(t, tr)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("fleet trace at %d workers differs from the serial run", workers)
		}
	}
}
