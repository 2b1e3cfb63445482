package cloud

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/stats"
	"qcloud/internal/trace"
)

// testWindow is a short simulation window keeping unit tests fast.
var testWindow = struct{ start, end time.Time }{
	start: time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC),
	end:   time.Date(2021, 2, 21, 0, 0, 0, 0, time.UTC),
}

func testConfig(seed int64, machines ...string) Config {
	fleet := backend.Fleet()
	var selected []*backend.Machine
	for _, name := range machines {
		for _, m := range fleet {
			if m.Name == name {
				selected = append(selected, m)
			}
		}
	}
	return Config{
		Seed: seed, Start: testWindow.start, End: testWindow.end,
		Machines: selected,
	}
}

func makeSpecs(machine string, n int, spacing time.Duration) []*JobSpec {
	specs := make([]*JobSpec, n)
	for i := range specs {
		specs[i] = &JobSpec{
			SubmitTime:  testWindow.start.Add(24*time.Hour + time.Duration(i)*spacing),
			User:        fmt.Sprintf("study-%d", i%5),
			Machine:     machine,
			BatchSize:   10 + i%50,
			Shots:       1024,
			CircuitName: "qft4",
			Width:       4, TotalDepth: 200, TotalGateOps: 700, CXTotal: 90, MemSlots: 4,
		}
	}
	return specs
}

func TestSimulateBasicInvariants(t *testing.T) {
	cfg := testConfig(1, "ibmq_rome")
	specs := makeSpecs("ibmq_rome", 100, 90*time.Minute)
	tr, err := Simulate(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 100 {
		t.Fatalf("jobs = %d, want 100", len(tr.Jobs))
	}
	for _, j := range tr.Jobs {
		if err := j.Validate(); err != nil {
			t.Fatal(err)
		}
		if j.QueueSeconds() < 0 {
			t.Fatalf("negative queue time: %+v", j)
		}
		if j.Status == trace.StatusDone && j.ExecSeconds() <= 0 {
			t.Fatalf("done job with no exec time: %+v", j)
		}
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := testConfig(7, "ibmq_bogota")
	specs := makeSpecs("ibmq_bogota", 40, 2*time.Hour)
	a, err := Simulate(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg, makeSpecs("ibmq_bogota", 40, 2*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Jobs {
		if !a.Jobs[i].StartTime.Equal(b.Jobs[i].StartTime) || a.Jobs[i].Status != b.Jobs[i].Status {
			t.Fatalf("job %d differs across identical runs", i)
		}
	}
}

func TestSimulateUnknownMachine(t *testing.T) {
	cfg := testConfig(1, "ibmq_rome")
	if _, err := Simulate(cfg, []*JobSpec{{Machine: "nope", SubmitTime: testWindow.start, BatchSize: 1, Shots: 1}}); err == nil {
		t.Fatal("unknown machine should fail")
	}
}

func TestPublicMachineQueuesLonger(t *testing.T) {
	cfg := testConfig(3, "ibmq_athens", "ibmq_bogota")
	var specs []*JobSpec
	specs = append(specs, makeSpecs("ibmq_athens", 60, 4*time.Hour)...)
	specs = append(specs, makeSpecs("ibmq_bogota", 60, 4*time.Hour)...)
	tr, err := Simulate(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	var athens, bogota []float64
	for _, j := range tr.Jobs {
		if j.Status == trace.StatusCancelled {
			continue
		}
		q := j.QueueSeconds() / 60
		if j.Machine == "ibmq_athens" {
			athens = append(athens, q)
		} else {
			bogota = append(bogota, q)
		}
	}
	if stats.Median(athens) <= stats.Median(bogota) {
		t.Fatalf("public athens median queue %v min should exceed private bogota %v min",
			stats.Median(athens), stats.Median(bogota))
	}
}

// setErrorRate sets the execution error rate for the test.
func setErrorRate(t *testing.T, r float64) {
	old := errorRate
	errorRate = r
	t.Cleanup(func() { errorRate = old })
}

func TestErrorRateApproximate(t *testing.T) {
	cfg := testConfig(5, "ibmq_rome")
	setErrorRate(t, 0.2) // exaggerate to measure with fewer jobs
	specs := makeSpecs("ibmq_rome", 300, 30*time.Minute)
	tr, err := Simulate(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	errors := 0
	completed := 0
	for _, j := range tr.Jobs {
		if j.Status == trace.StatusCancelled {
			continue
		}
		completed++
		if j.Status == trace.StatusError {
			errors++
		}
	}
	frac := float64(errors) / float64(completed)
	if frac < 0.1 || frac > 0.3 {
		t.Fatalf("error fraction = %v, want ~0.2", frac)
	}
}

func TestPatienceCancellation(t *testing.T) {
	cfg := testConfig(6, "ibmq_athens") // saturated public machine
	specs := makeSpecs("ibmq_athens", 50, time.Hour)
	for _, s := range specs {
		s.PatienceSec = 30 // nobody waits half a minute on athens
	}
	tr, err := Simulate(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := 0
	for _, j := range tr.Jobs {
		if j.Status == trace.StatusCancelled {
			cancelled++
			if j.ExecSeconds() != 0 {
				t.Fatal("cancelled job should not execute")
			}
		}
	}
	if cancelled < len(specs)/2 {
		t.Fatalf("cancelled = %d of %d, expected most to give up", cancelled, len(specs))
	}
}

func TestPendingSamplesRecorded(t *testing.T) {
	cfg := testConfig(8, "ibmq_athens", "ibmq_rome")
	tr, err := Simulate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]*trace.MachineStats)
	for _, ms := range tr.Machines {
		byName[ms.Name] = ms
	}
	athens, rome := byName["ibmq_athens"], byName["ibmq_rome"]
	if athens == nil || rome == nil {
		t.Fatal("machine stats missing")
	}
	if len(athens.PendingSamples) < 20 {
		t.Fatalf("athens pending samples = %d, want many", len(athens.PendingSamples))
	}
	if athens.BackgroundJobs == 0 {
		t.Fatal("background load missing on athens")
	}
	// Fig 9 shape: the public machine's average pending queue exceeds
	// the private machine's.
	avg := func(ms *trace.MachineStats) float64 {
		s := 0.0
		for _, p := range ms.PendingSamples {
			s += float64(p.Pending)
		}
		return s / float64(len(ms.PendingSamples))
	}
	if avg(athens) <= avg(rome) {
		t.Fatalf("avg pending: athens %v <= rome %v", avg(athens), avg(rome))
	}
}

func TestOfflineMachineProducesNoBackground(t *testing.T) {
	cfg := testConfig(9, "ibmq_20_tokyo") // retired 2019, window is 2021
	tr, err := Simulate(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range tr.Machines {
		if ms.BackgroundJobs != 0 {
			t.Fatal("retired machine should process nothing")
		}
	}
}

func TestJobsAfterRetirementCancelled(t *testing.T) {
	fleet := backend.Fleet()
	var tokyo *backend.Machine
	for _, m := range fleet {
		if m.Name == "ibmq_20_tokyo" {
			tokyo = m
		}
	}
	cfg := Config{
		Seed:     10,
		Start:    time.Date(2019, 8, 15, 0, 0, 0, 0, time.UTC),
		End:      time.Date(2019, 10, 15, 0, 0, 0, 0, time.UTC),
		Machines: []*backend.Machine{tokyo},
	}
	// Tokyo retires 2019-09-01; submit after that.
	spec := &JobSpec{
		SubmitTime: time.Date(2019, 9, 20, 0, 0, 0, 0, time.UTC),
		User:       "late", Machine: "ibmq_20_tokyo",
		BatchSize: 5, Shots: 1024, Width: 4,
	}
	tr, err := Simulate(cfg, []*JobSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Jobs) != 1 || tr.Jobs[0].Status != trace.StatusCancelled {
		t.Fatalf("late job should be cancelled: %+v", tr.Jobs)
	}
}

func TestFairShareReordersHeavyUser(t *testing.T) {
	// One user floods the queue; a light user submitting later should
	// start before the flood finishes.
	fleet := backend.Fleet()
	var rome *backend.Machine
	for _, m := range fleet {
		if m.Name == "ibmq_rome" {
			rome = m
		}
	}
	cfg := Config{
		Seed: 11, Start: testWindow.start, End: testWindow.end,
		Machines: []*backend.Machine{rome},
		// Silence background load so the test isolates fair-share.
		Background: &BackgroundModel{
			Users: 1, PublicUtil: 0, PrivateUtil: 0,
			RampFraction: 1, RampFloor: 0,
			BatchDist: &stats.Uniform{Lo: 1, Hi: 2}, ShotsDist: &stats.Uniform{Lo: 1024, Hi: 1025},
			MeanPatienceSec: 1e9,
		},
	}
	base := testWindow.start.Add(24 * time.Hour)
	var specs []*JobSpec
	for i := 0; i < 30; i++ {
		specs = append(specs, &JobSpec{
			SubmitTime: base.Add(time.Duration(i) * time.Second),
			User:       "hog", Machine: "ibmq_rome",
			BatchSize: 900, Shots: 8192, CircuitName: "flood",
			Width: 4, TotalDepth: 100,
		})
	}
	specs = append(specs, &JobSpec{
		SubmitTime: base.Add(10 * time.Minute),
		User:       "light", Machine: "ibmq_rome",
		BatchSize: 1, Shots: 1024, CircuitName: "tiny", Width: 2,
	})
	tr, err := Simulate(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	var lightStart time.Time
	hogDone := 0
	for _, j := range tr.Jobs {
		if j.User == "light" {
			lightStart = j.StartTime
		}
	}
	for _, j := range tr.Jobs {
		if j.User == "hog" && j.EndTime.Before(lightStart) {
			hogDone++
		}
	}
	if hogDone >= 29 {
		t.Fatalf("light user waited behind %d hog jobs; fair share failed", hogDone)
	}
}

// TestLittlesLawHolds validates the queueing core scientifically: in a
// (near) steady-state single-server queue, the time-averaged queue
// length L must approximately equal arrival rate x average wait
// (Little's law). Probe jobs with negligible service time measure W.
func TestLittlesLawHolds(t *testing.T) {
	fleet := backend.Fleet()
	var m *backend.Machine
	for _, mm := range fleet {
		if mm.Name == "ibmq_toronto" {
			m = mm
		}
	}
	cfg := Config{
		Seed:  21,
		Start: time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
		End:   time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC),
		// Fine sampling for an accurate L.
		PendingSampleEvery: 15 * time.Minute,
		Machines:           []*backend.Machine{m},
	}
	// Probe jobs: tiny, frequent, spread across distinct users so
	// fair-share does not systematically favor them as a group.
	var probes []*JobSpec
	for i := 0; i < 500; i++ {
		probes = append(probes, &JobSpec{
			SubmitTime: cfg.Start.Add(time.Duration(i)*170*time.Minute + 24*time.Hour),
			User:       fmt.Sprintf("probe-%d", i),
			Machine:    m.Name, BatchSize: 1, Shots: 1024, Width: 2,
		})
	}
	tr, err := Simulate(cfg, probes)
	if err != nil {
		t.Fatal(err)
	}
	// L: time-averaged pending count.
	var ms *trace.MachineStats
	for _, s := range tr.Machines {
		if s.Name == m.Name {
			ms = s
		}
	}
	var lSum float64
	for _, p := range ms.PendingSamples {
		lSum += float64(p.Pending)
	}
	L := lSum / float64(len(ms.PendingSamples))
	// λ: background jobs per second over the window (probes negligible).
	window := cfg.End.Sub(cfg.Start).Seconds()
	lambda := float64(ms.BackgroundJobs) / window
	// W: waiting time measured by the probes (queue wait only, since L
	// counts queued-not-running jobs).
	var wSum float64
	n := 0
	for _, j := range tr.Jobs {
		if j.Status == trace.StatusCancelled {
			continue
		}
		wSum += j.QueueSeconds()
		n++
	}
	W := wSum / float64(n)
	ratio := L / (lambda * W)
	// Bursty arrivals, fair-share reordering and probe bias keep this
	// from being exact; a factor-2 agreement validates the core.
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("Little's law violated: L=%.1f lambda=%.5f/s W=%.0fs ratio=%.2f",
			L, lambda, W, ratio)
	}
}

// downtimeSim builds a bare machineSim carrying only the downtime
// cursor state afterDowntime needs.
func downtimeSim(windows [][2]float64, endSec float64) *machineSim {
	ms := &machineSim{endSec: endSec}
	for _, w := range windows {
		ms.downtimes = append(ms.downtimes, dtWin{start: w[0], end: w[1]})
	}
	return ms
}

func TestGenDowntimesClippedAtEnd(t *testing.T) {
	// Scan seeds for a window whose sampled duration overruns the end
	// of the simulation: its clipped end must land exactly on endSec.
	const endSec = 40 * 86400
	clipped := false
	for seed := int64(0); seed < 200 && !clipped; seed++ {
		r := rand.New(rand.NewSource(seed))
		wins := genDowntimes(r, 0, endSec)
		for _, w := range wins {
			if w[1] > endSec {
				t.Fatalf("seed %d: downtime %v extends past endSec", seed, w)
			}
			if w[1] == endSec {
				clipped = true
			}
		}
	}
	if !clipped {
		t.Fatal("no seed produced an end-clipped downtime; clipping untested")
	}
}

func TestAfterDowntimeBoundaries(t *testing.T) {
	wins := [][2]float64{{100, 200}, {400, 500}}
	ms := downtimeSim(wins, 1e9)
	// A start landing exactly on a window's opening boundary is
	// displaced to its end.
	if got := ms.afterDowntime(100); got != 200 {
		t.Fatalf("start at window open: got %v, want 200", got)
	}
	// A start landing exactly on a window's closing boundary is not
	// displaced: the machine is back up.
	if got := ms.afterDowntime(200); got != 200 {
		t.Fatalf("start at window close: got %v, want 200 (no displacement)", got)
	}
	// Starts strictly inside a later window displace to its end; the
	// moving cursor must have skipped the earlier window.
	if got := ms.afterDowntime(450); got != 500 {
		t.Fatalf("start inside second window: got %v, want 500", got)
	}
	// Monotone starts clear of any window pass through untouched.
	if got := ms.afterDowntime(600); got != 600 {
		t.Fatalf("start after all windows: got %v, want 600", got)
	}
}

func TestAfterDowntimeBackToBackDisplacesTwice(t *testing.T) {
	// Two abutting windows: a start in the first must hop over both,
	// not land on the shared boundary inside the second outage.
	ms := downtimeSim([][2]float64{{100, 200}, {200, 300}}, 1e9)
	if got := ms.afterDowntime(150); got != 300 {
		t.Fatalf("back-to-back downtime: got %v, want 300 (double displacement)", got)
	}
	// Three in a row for good measure.
	ms = downtimeSim([][2]float64{{10, 20}, {20, 30}, {30, 45}}, 1e9)
	if got := ms.afterDowntime(12); got != 45 {
		t.Fatalf("triple back-to-back downtime: got %v, want 45", got)
	}
}

func TestDowntimesDeterministicAndBounded(t *testing.T) {
	r1 := rand.New(rand.NewSource(5))
	r2 := rand.New(rand.NewSource(5))
	a := genDowntimes(r1, 0, 200*86400)
	b := genDowntimes(r2, 0, 200*86400)
	if len(a) != len(b) {
		t.Fatal("downtimes not deterministic")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("downtimes not deterministic")
		}
		if a[i][1] <= a[i][0] {
			t.Fatal("empty downtime interval")
		}
		if a[i][1]-a[i][0] > 5*86400+1 {
			t.Fatalf("downtime longer than the 5-day cap: %v", a[i])
		}
		if i > 0 && a[i][0] < a[i-1][1] {
			t.Fatal("downtimes overlap")
		}
	}
	if len(a) < 4 || len(a) > 40 {
		t.Fatalf("downtime count %d implausible for 200 days", len(a))
	}
}
