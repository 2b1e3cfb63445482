package sched

import (
	"fmt"
	"testing"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/stats"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

// schedWindow keeps the evaluations fast: three months at the busy end
// of the study.
func schedConfig(seed int64) cloud.Config {
	return cloud.Config{
		Seed:  seed,
		Start: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2021, 4, 1, 0, 0, 0, 0, time.UTC),
	}
}

func schedWorkload(seed int64) []*cloud.JobSpec {
	cfg := schedConfig(seed)
	return workload.Generate(workload.Config{
		Seed: seed, TotalJobs: 900,
		Start: cfg.Start, End: cfg.End,
		GrowthPerMonth: 0.05,
	})
}

func TestEstimatorPendingLookup(t *testing.T) {
	e, err := BuildEstimator(schedConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2021, 3, 1, 12, 0, 0, 0, time.UTC)
	if e.PendingAt("ibmq_athens", at) <= e.PendingAt("ibmq_rome", at) {
		t.Log("athens not busier than rome at the probe instant (can happen); checking averages")
		var a, r float64
		for d := 0; d < 28; d++ {
			ts := at.AddDate(0, 0, d)
			a += float64(e.PendingAt("ibmq_athens", ts))
			r += float64(e.PendingAt("ibmq_rome", ts))
		}
		if a <= r {
			t.Fatalf("athens pending (%v) should exceed rome (%v) on average", a, r)
		}
	}
	// Before any samples: zero.
	if e.PendingAt("ibmq_athens", time.Date(2020, 12, 31, 0, 0, 0, 0, time.UTC)) != 0 {
		t.Fatal("pending before window should be 0")
	}
	if e.PendingAt("no-such-machine", at) != 0 {
		t.Fatal("unknown machine should be 0")
	}
}

func TestEstimatedWaitTracksActualWait(t *testing.T) {
	// §V-E.1: the queue-time predictor must rank machines/times usefully.
	cfg := schedConfig(2)
	e, err := BuildEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := schedWorkload(2)
	_, tr, err := Evaluate(cfg, specs, UserChoice{}, e)
	if err != nil {
		t.Fatal(err)
	}
	var predicted, actual []float64
	for _, j := range tr.Jobs {
		if j.Status == trace.StatusCancelled {
			continue
		}
		r, err := e.Queue(j.Machine, j.SubmitTime)
		if err != nil {
			t.Fatal(err)
		}
		predicted = append(predicted, r.WaitSeconds)
		actual = append(actual, j.QueueSeconds())
	}
	if len(actual) < 200 {
		t.Fatalf("too few jobs: %d", len(actual))
	}
	rho := stats.Spearman(predicted, actual)
	if rho < 0.35 {
		t.Fatalf("wait prediction rank correlation = %v, want useful (>0.35)", rho)
	}
}

func TestCandidatesRespectConstraints(t *testing.T) {
	e, err := BuildEstimator(schedConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	at := time.Date(2021, 3, 1, 12, 0, 0, 0, time.UTC)
	pub := &cloud.JobSpec{SubmitTime: at, Width: 4, Privileged: false}
	for _, m := range e.Candidates(pub) {
		if !m.Public {
			t.Fatalf("non-privileged user offered private machine %s", m.Name)
		}
		if m.NumQubits() < 4 {
			t.Fatalf("machine %s too small", m.Name)
		}
	}
	wide := &cloud.JobSpec{SubmitTime: at, Width: 30, Privileged: true}
	for _, m := range e.Candidates(wide) {
		if m.NumQubits() < 30 {
			t.Fatalf("machine %s cannot fit 30 qubits", m.Name)
		}
	}
	priv := &cloud.JobSpec{SubmitTime: at, Width: 4, Privileged: true}
	if len(e.Candidates(priv)) <= len(e.Candidates(pub)) {
		t.Fatal("privileged users should see strictly more machines")
	}
}

func TestPredictedWaitBeatsUserChoice(t *testing.T) {
	// §IV-D.2's headline: vendor-side machine-aware placement improves
	// queuing over user heuristics.
	cfg := schedConfig(4)
	e, err := BuildEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := schedWorkload(4)
	base, _, err := Evaluate(cfg, specs, UserChoice{}, e)
	if err != nil {
		t.Fatal(err)
	}
	balanced, _, err := Evaluate(cfg, specs, PredictedWait{}, e)
	if err != nil {
		t.Fatal(err)
	}
	if balanced.MeanQueueMin >= base.MeanQueueMin {
		t.Fatalf("predicted-wait mean queue %v min should beat user choice %v min",
			balanced.MeanQueueMin, base.MeanQueueMin)
	}
	if balanced.MedianQueueMin >= base.MedianQueueMin {
		t.Fatalf("predicted-wait median queue %v min should beat user choice %v min",
			balanced.MedianQueueMin, base.MedianQueueMin)
	}
}

func TestFidelityAwareTradesWaitForFidelity(t *testing.T) {
	cfg := schedConfig(5)
	e, err := BuildEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := schedWorkload(5)
	fast, _, err := Evaluate(cfg, specs, PredictedWait{}, e)
	if err != nil {
		t.Fatal(err)
	}
	fid, _, err := Evaluate(cfg, specs, FidelityAware{WaitPenaltyPerHour: 0.005}, e)
	if err != nil {
		t.Fatal(err)
	}
	if fid.MeanEstFidelity <= fast.MeanEstFidelity {
		t.Fatalf("fidelity-aware estimated fidelity %v should beat pure wait minimization %v",
			fid.MeanEstFidelity, fast.MeanEstFidelity)
	}
}

func TestPlaceDoesNotMutateInput(t *testing.T) {
	cfg := schedConfig(6)
	e, err := BuildEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := schedWorkload(6)[:20]
	before := make([]cloud.JobSpec, len(specs))
	privileged := make(map[string]bool)
	for i, s := range specs {
		before[i] = *s
		privileged[s.User] = s.Privileged
	}
	_, tr, err := Evaluate(cfg, specs, LeastPending{}, e)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		if *s != before[i] {
			t.Fatal("Evaluate mutated input specs")
		}
	}
	// Policies must only pick legal machines.
	if len(tr.Jobs) != len(specs) {
		t.Fatalf("placed %d jobs, want %d", len(tr.Jobs), len(specs))
	}
	byName := backend.FleetByName()
	for _, j := range tr.Jobs {
		m := byName[j.Machine]
		if m == nil {
			t.Fatalf("placed on unknown machine %s", j.Machine)
		}
		if !privileged[j.User] && !m.Public {
			t.Fatalf("public user placed on private %s", j.Machine)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{UserChoice{}, LeastPending{}, PredictedWait{}, FidelityAware{}, FaultAware{}} {
		if p.Name() == "" {
			t.Fatal("policy without a name")
		}
	}
}

// quietOnlineConfig silences the background population on a two-
// machine private fleet so online-placement tests are deterministic.
func quietOnlineConfig(seed int64) cloud.Config {
	var sel []*backend.Machine
	for _, m := range backend.Fleet() {
		if m.Name == "ibmq_rome" || m.Name == "ibmq_bogota" {
			sel = append(sel, m)
		}
	}
	bg := cloud.DefaultBackground()
	bg.PublicUtil, bg.PrivateUtil, bg.RampFloor = 0, 0, 0
	return cloud.Config{
		Seed:     seed,
		Start:    time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC),
		End:      time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC),
		Machines: sel, Background: bg,
	}
}

// TestLiveShortestWaitUsesQueueState pins the headline behavior of the
// session-backed policies: a flood of heavy jobs aimed at one machine
// is spread across the fleet because the policy reads the live queue
// backlog at each submit instant, collapsing queue times relative to
// the users' own targeting.
func TestLiveShortestWaitUsesQueueState(t *testing.T) {
	cfg := quietOnlineConfig(31)
	// A week in: both machines are up (bogota opens this seed's window
	// inside a multi-day maintenance outage, which the downtime-aware
	// snapshots make the policy route around — leaving nothing to
	// balance until the machine returns).
	base := cfg.Start.Add(7 * 24 * time.Hour)
	var specs []*cloud.JobSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, &cloud.JobSpec{
			SubmitTime: base.Add(time.Duration(i) * time.Minute),
			User:       "hog", Machine: "ibmq_rome", Privileged: true,
			BatchSize: 900, Shots: 8192, CircuitName: "flood",
			Width: 4, TotalDepth: 9000,
		})
	}
	for i := 0; i < 6; i++ {
		specs = append(specs, &cloud.JobSpec{
			SubmitTime: base.Add(10*time.Minute + time.Duration(i)*time.Minute),
			User:       fmt.Sprintf("probe-%d", i), Machine: "ibmq_rome", Privileged: true,
			BatchSize: 1, Shots: 1024, CircuitName: "tiny", Width: 2,
		})
	}
	f := NewFleetInfo(cfg)
	userChoice, _, err := EvaluateOnline(cfg, specs, UserChoice{}, f)
	if err != nil {
		t.Fatal(err)
	}
	balanced, tr, err := EvaluateOnline(cfg, specs, PredictedWait{}, f)
	if err != nil {
		t.Fatal(err)
	}
	byMachine := tr.JobsByMachine()
	if len(byMachine["ibmq_rome"]) == 0 || len(byMachine["ibmq_bogota"]) == 0 {
		t.Fatalf("live placement should spread the flood: rome=%d bogota=%d",
			len(byMachine["ibmq_rome"]), len(byMachine["ibmq_bogota"]))
	}
	if balanced.MeanQueueMin >= userChoice.MeanQueueMin/2 {
		t.Fatalf("live shortest-wait mean queue %v min should collapse vs user choice %v min",
			balanced.MeanQueueMin, userChoice.MeanQueueMin)
	}
}

// TestSummaryFidelityFromJobRecords pins MeanEstFidelity to each job's
// own features. Two specs from one user at one instant, one CX-free and
// one CX-heavy, must each be scored as themselves; a join from trace
// records back to specs by user and submit time would score one of
// them twice.
func TestSummaryFidelityFromJobRecords(t *testing.T) {
	cfg := quietOnlineConfig(33)
	at := cfg.Start.Add(7 * 24 * time.Hour)
	specs := []*cloud.JobSpec{
		{SubmitTime: at, User: "twin", Machine: "ibmq_rome", Privileged: true,
			BatchSize: 4, Shots: 1024, CircuitName: "bell", Width: 2, CXTotal: 0},
		{SubmitTime: at, User: "twin", Machine: "ibmq_rome", Privileged: true,
			BatchSize: 4, Shots: 1024, CircuitName: "ladder", Width: 4, CXTotal: 400},
	}
	f := NewFleetInfo(cfg)
	sum, tr, err := EvaluateOnline(cfg, specs, UserChoice{}, f)
	if err != nil {
		t.Fatal(err)
	}
	byCX := map[int]*cloud.JobSpec{0: specs[0], 400: specs[1]}
	want, n := 0.0, 0
	for _, j := range tr.Jobs {
		if j.Status == trace.StatusCancelled {
			continue
		}
		want += f.EstimatedFidelity(byCX[j.CXTotal], j.Machine, j.StartTime)
		n++
	}
	if n != 2 {
		t.Fatalf("want both jobs to complete, got %d of %d", n, len(tr.Jobs))
	}
	want /= float64(n)
	if sum.MeanEstFidelity != want {
		t.Fatalf("MeanEstFidelity = %v, want %v from the jobs' own features", sum.MeanEstFidelity, want)
	}
}

// TestOnlinePlacementBeatsUserChoice is the §IV-D A/B on the realistic
// workload: deciding each job from live QueueState at its submit
// instant beats the users' machine heuristics, with no estimator
// pre-simulation involved.
func TestOnlinePlacementBeatsUserChoice(t *testing.T) {
	cfg := schedConfig(12)
	specs := schedWorkload(12)
	f := NewFleetInfo(cfg)
	base, _, err := EvaluateOnline(cfg, specs, UserChoice{}, f)
	if err != nil {
		t.Fatal(err)
	}
	live, _, err := EvaluateOnline(cfg, specs, PredictedWait{}, f)
	if err != nil {
		t.Fatal(err)
	}
	if live.MeanQueueMin >= base.MeanQueueMin {
		t.Fatalf("live shortest-wait mean queue %v min should beat user choice %v min",
			live.MeanQueueMin, base.MeanQueueMin)
	}
	if live.MedianQueueMin >= base.MedianQueueMin {
		t.Fatalf("live shortest-wait median queue %v min should beat user choice %v min",
			live.MedianQueueMin, base.MedianQueueMin)
	}
}

func TestWaitBoundsCoverActualWaits(t *testing.T) {
	cfg := schedConfig(7)
	e, err := BuildEstimator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	specs := schedWorkload(7)
	_, tr, err := Evaluate(cfg, specs, UserChoice{}, e)
	if err != nil {
		t.Fatal(err)
	}
	within, total := 0, 0
	ordered := 0
	for _, j := range tr.Jobs {
		if j.Status == trace.StatusCancelled {
			continue
		}
		b := e.EstimatedWaitBounds(j.Machine, j.SubmitTime)
		if b.P10 > b.P50 || b.P50 > b.P90 {
			t.Fatalf("bounds not ordered: %+v", b)
		}
		ordered++
		if b.P90 == 0 {
			continue // empty-queue prediction; actual may still wait
		}
		total++
		if w := j.QueueSeconds(); w >= b.P10 && w <= b.P90 {
			within++
		}
	}
	if total < 100 {
		t.Fatalf("too few bounded predictions: %d", total)
	}
	cover := float64(within) / float64(total)
	// An honest 10-90 band should cover a substantial majority; the
	// simulation has burst dynamics the analytic band cannot fully
	// capture, so require >= 0.5 coverage.
	if cover < 0.5 {
		t.Fatalf("P10-P90 band covered only %.0f%% of actual waits", cover*100)
	}
}

func TestWaitBoundsEmptyQueue(t *testing.T) {
	e, err := BuildEstimator(schedConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	b := e.EstimatedWaitBounds("ibmq_rome", time.Date(2020, 12, 31, 0, 0, 0, 0, time.UTC))
	if b.P10 != 0 || b.P50 != 0 || b.P90 != 0 {
		t.Fatalf("pre-window bounds should be zero: %+v", b)
	}
}
