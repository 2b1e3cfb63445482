package sched

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"qcloud/internal/cloud"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

// goldenScenario is one workload the golden runs evaluate: its config,
// its specs, and the Estimator and FleetInfo the two drivers take.
type goldenScenario struct {
	cfg   cloud.Config
	specs []*cloud.JobSpec
	est   *Estimator
	f     *FleetInfo
}

// goldenRun is one (driver, policy) evaluation and what it must
// produce: the SHA-256 of its trace's WriteJSON bytes and its
// Summary's numeric fields.
type goldenRun struct {
	name string
	run  func(recs, adv *goldenScenario) (Summary, *trace.Trace, error)
	sha  string
	sum  string
}

// TestPlacementGolden pins every placement the repo reports. recs is
// qcloud-recs' and examples/scheduler's scenario: seed 11, 900 jobs
// over the first quarter of 2021. adv is the adversarial fault
// scenario of TestFaultAwareRecoveryUnderAdversarialFaults. A change
// to a policy, a driver or summarize that moves a placement, a trace
// byte or a summary bit fails here.
func TestPlacementGolden(t *testing.T) {
	runs := []goldenRun{
		{"offline/user-choice", func(recs, _ *goldenScenario) (Summary, *trace.Trace, error) {
			return Evaluate(recs.cfg, recs.specs, UserChoice{}, recs.est)
		}, "67de4695af783f40a622b9c1fee2a6cdd04d6f84a839c147ac5a55b54e56985c",
			"med=71.810923388 mean=283.62886487939085 p90=828.70465757378 fid=0.8763436609838517 cancelled=0.02854006586169045 jobs=911 replaced=0"},
		{"offline/least-pending", func(recs, _ *goldenScenario) (Summary, *trace.Trace, error) {
			return Evaluate(recs.cfg, recs.specs, LeastPending{}, recs.est)
		}, "0fec2fbfd381e7dc459dc2cfbce58c7eef21d826a5e6ff5fb5542209462c8f7d",
			"med=14.022541265366668 mean=132.0176411971109 p90=362.49444260792023 fid=0.8580595442335653 cancelled=0.019758507135016465 jobs=911 replaced=0"},
		{"offline/predicted-wait", func(recs, _ *goldenScenario) (Summary, *trace.Trace, error) {
			return Evaluate(recs.cfg, recs.specs, PredictedWait{}, recs.est)
		}, "d71e20ad08574a403cb4de4f7fbf00630422b4fb0a0594fac6b6a5ed62d4d92e",
			"med=13.020396508833333 mean=125.16502236985141 p90=327.3846431988067 fid=0.8605657284519925 cancelled=0.014270032930845226 jobs=911 replaced=0"},
		{"offline/fidelity-aware", func(recs, _ *goldenScenario) (Summary, *trace.Trace, error) {
			return Evaluate(recs.cfg, recs.specs, FidelityAware{WaitPenaltyPerHour: 0.01}, recs.est)
		}, "2b9606dede3467197e14528e4d62aac8497979dd57ae1d69b6aa1e45809fcc1f",
			"med=21.962549683708332 mean=122.72016142715249 p90=355.3866868347667 fid=0.9040052207118805 cancelled=0.005488474204171241 jobs=911 replaced=0"},
		{"online/user-choice", func(recs, _ *goldenScenario) (Summary, *trace.Trace, error) {
			return EvaluateOnline(recs.cfg, recs.specs, UserChoice{}, recs.f)
		}, "67de4695af783f40a622b9c1fee2a6cdd04d6f84a839c147ac5a55b54e56985c",
			"med=71.810923388 mean=283.62886487939085 p90=828.70465757378 fid=0.8763436609838517 cancelled=0.02854006586169045 jobs=911 replaced=0"},
		{"online/least-pending", func(recs, _ *goldenScenario) (Summary, *trace.Trace, error) {
			return EvaluateOnline(recs.cfg, recs.specs, LeastPending{}, recs.f)
		}, "f6a42b0664938f95dbc074287ebd16632a55767c964f4eb8e4fb4bb6bb0aed32",
			"med=0.3161348862583333 mean=80.69990287607702 p90=242.84185667311334 fid=0.8646306912453935 cancelled=0.012074643249176729 jobs=911 replaced=0"},
		{"online/shortest-wait", func(recs, _ *goldenScenario) (Summary, *trace.Trace, error) {
			return EvaluateOnline(recs.cfg, recs.specs, PredictedWait{}, recs.f)
		}, "b0263265d6eb234447027d2829a2e178d666076c1f7a9c27c964ddf4433830fd",
			"med=0 mean=66.55998589995667 p90=231.99937632756337 fid=0.8680684440555717 cancelled=0.0010976948408342481 jobs=911 replaced=0"},
		{"online/fidelity-aware", func(recs, _ *goldenScenario) (Summary, *trace.Trace, error) {
			return EvaluateOnline(recs.cfg, recs.specs, FidelityAware{WaitPenaltyPerHour: 0.01}, recs.f)
		}, "b358a724192191f94b84e4d010ced66425a42e26db08e8f081618e3d4b9ab6fd",
			"med=11.7007888357 mean=91.90175332436058 p90=259.95096478449017 fid=0.9048843556561533 cancelled=0.0021953896816684962 jobs=911 replaced=0"},
		{"online/fault-aware", func(recs, _ *goldenScenario) (Summary, *trace.Trace, error) {
			return EvaluateOnline(recs.cfg, recs.specs, FaultAware{}, recs.f)
		}, "b0263265d6eb234447027d2829a2e178d666076c1f7a9c27c964ddf4433830fd",
			"med=0 mean=66.55998589995667 p90=231.99937632756337 fid=0.8680684440555717 cancelled=0.0010976948408342481 jobs=911 replaced=0"},
		{"adversarial/shortest-wait", func(_, adv *goldenScenario) (Summary, *trace.Trace, error) {
			return EvaluateOnline(adv.cfg, adv.specs, PredictedWait{}, adv.f)
		}, "1422810d67a26a1bc50214ad01686a1797757bbd0b41ee5336700bec910de46b",
			"med=1.0207561438166666 mean=140.88531673572146 p90=371.49789850024706 fid=0.8618646240871096 cancelled=0.013872832369942197 jobs=2595 replaced=0"},
		{"adversarial/fault-aware", func(_, adv *goldenScenario) (Summary, *trace.Trace, error) {
			return EvaluateOnline(adv.cfg, adv.specs, FaultAware{}, adv.f)
		}, "08097350b86bebb4afdb3edeff32e6288a766022f28226fb1ff25bd8e1a0d0e8",
			"med=1.1923246135499999 mean=134.96353379097673 p90=379.1948186447969 fid=0.8603714103911586 cancelled=0.010756819054936612 jobs=2603 replaced=8"},
	}

	recsCfg := cloud.Config{
		Seed:  11,
		Start: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC),
	}
	est, err := BuildEstimator(recsCfg)
	if err != nil {
		t.Fatal(err)
	}
	recs := &goldenScenario{
		cfg: recsCfg,
		specs: workload.Generate(workload.Config{
			Seed: 11, TotalJobs: 900,
			Start: recsCfg.Start, End: recsCfg.End, GrowthPerMonth: 0.05,
		}),
		est: est,
		f:   est.FleetInfo,
	}
	sc, err := workload.FindFaultScenario("adversarial")
	if err != nil {
		t.Fatal(err)
	}
	advCfg := sc.Apply(schedConfig(6))
	adv := &goldenScenario{
		cfg: advCfg,
		specs: workload.Generate(workload.Config{
			Seed: 6, TotalJobs: 2500,
			Start: advCfg.Start, End: advCfg.End, GrowthPerMonth: 0.05,
		}),
		f: NewFleetInfo(advCfg),
	}

	for _, r := range runs {
		sum, tr, err := r.run(recs, adv)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		var buf bytes.Buffer
		if err := trace.WriteJSON(&buf, tr); err != nil {
			t.Fatal(err)
		}
		sha := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
		got := fmt.Sprintf("med=%v mean=%v p90=%v fid=%v cancelled=%v jobs=%d replaced=%d",
			sum.MedianQueueMin, sum.MeanQueueMin, sum.P90QueueMin, sum.MeanEstFidelity,
			sum.CancelledFraction, sum.Jobs, sum.Replaced)
		if sha != r.sha {
			t.Errorf("%s: trace sha256 %s, pinned %s", r.name, sha, r.sha)
		}
		if got != r.sum {
			t.Errorf("%s: summary\n  %s\npinned\n  %s", r.name, got, r.sum)
		}
	}
}
