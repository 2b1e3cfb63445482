package analysis

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"qcloud/internal/cloud"
	"qcloud/internal/stats"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

// The analysis tests assert the *shapes* the paper reports, on a
// moderately sized deterministic trace shared across tests.

var (
	fixtureOnce sync.Once
	fixture     *trace.Trace
	fixtureErr  error
)

func studyTrace(t *testing.T) *trace.Trace {
	t.Helper()
	fixtureOnce.Do(func() {
		specs := workload.Generate(workload.Config{Seed: 77, TotalJobs: 3000})
		fixture, fixtureErr = cloud.Simulate(cloud.Config{Seed: 77}, specs)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

func TestFig02aCumulativeTrialsGrowth(t *testing.T) {
	tr := studyTrace(t)
	months := CumulativeTrials(tr)
	if len(months) < 20 {
		t.Fatalf("months = %d, want a two-year span", len(months))
	}
	var prev int64
	for _, m := range months {
		if m.Cumulative < prev {
			t.Fatal("cumulative trials must be monotone")
		}
		prev = m.Cumulative
	}
	// Exponential growth: the last six months dominate the first year.
	firstYear := months[11].Cumulative
	total := months[len(months)-1].Cumulative
	if firstYear*10 > total {
		t.Fatalf("growth too flat: first year %d vs total %d", firstYear, total)
	}
	if total < 5e8 {
		t.Fatalf("total trials = %d, want billions (Fig 2a scale)", total)
	}
}

func TestFig02bStatusBreakdown(t *testing.T) {
	tr := studyTrace(t)
	b := StatusBreakdown(tr)
	done := b[trace.StatusDone]
	failed := b[trace.StatusError] + b[trace.StatusCancelled]
	// "around 95% of the jobs were successfully executed, around 5%
	// errored out or were cancelled".
	if done < 0.88 || done > 0.98 {
		t.Fatalf("DONE fraction = %v, want ~0.95", done)
	}
	if failed < 0.02 || failed > 0.12 {
		t.Fatalf("ERROR+CANCELLED = %v, want ~0.05", failed)
	}
}

func TestFig03QueueShape(t *testing.T) {
	tr := studyTrace(t)
	s := QueueShapeOf(tr)
	if s.TotalCircuits < 100_000 {
		t.Fatalf("circuits = %d, want the Fig 3 scale (600k in the paper)", s.TotalCircuits)
	}
	if s.MedianMinutes < 15 || s.MedianMinutes > 300 {
		t.Fatalf("median queue = %v min, want the ~60 min regime", s.MedianMinutes)
	}
	if s.FracUnderMin < 0.05 || s.FracUnderMin > 0.45 {
		t.Fatalf("frac <1min = %v, want ~0.2", s.FracUnderMin)
	}
	if s.FracOver2h < 0.2 || s.FracOver2h > 0.65 {
		t.Fatalf("frac >2h = %v, want >0.3", s.FracOver2h)
	}
	if s.FracOverDay < 0.005 || s.FracOverDay > 0.25 {
		t.Fatalf("frac >=1day = %v, want a heavy tail", s.FracOverDay)
	}
	// Sortedness of the series itself.
	qs := SortedCircuitQueuingTimes(tr)
	for i := 1; i < len(qs); i += 10_000 {
		if qs[i] < qs[i-1] {
			t.Fatal("queuing series must be sorted")
		}
	}
}

// naiveCircuitQueuingTimes is the Fig 3 series by definition: every
// circuit's queuing time, expanded first and then sorted.
func naiveCircuitQueuingTimes(tr *trace.Trace) []float64 {
	var out []float64
	for _, j := range tr.Completed() {
		q := j.QueueSeconds() / 60
		for c := 0; c < j.BatchSize; c++ {
			out = append(out, q)
		}
	}
	sort.Float64s(out)
	return out
}

// TestSortedCircuitQueuingTimesMatchesExpansion pins sort-then-expand
// against expand-then-sort: on a generated trace whose queue times tie
// often (a handful of distinct waits, zero waits, cancelled and
// zero-batch jobs) and on the simulated fixture.
func TestSortedCircuitQueuingTimesMatchesExpansion(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	base := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	gen := &trace.Trace{}
	for i := 0; i < 2000; i++ {
		submit := base.Add(time.Duration(r.Intn(1000)) * time.Minute)
		wait := time.Duration(r.Intn(6)) * 17 * time.Second
		if r.Intn(10) == 0 {
			wait = time.Duration(r.Int63n(int64(48 * time.Hour)))
		}
		status := trace.StatusDone
		if r.Intn(8) == 0 {
			status = trace.StatusCancelled
		}
		gen.Jobs = append(gen.Jobs, &trace.Job{
			ID: int64(i), BatchSize: r.Intn(40), Status: status,
			SubmitTime: submit, StartTime: submit.Add(wait), EndTime: submit.Add(wait + time.Minute),
		})
	}
	for name, tr := range map[string]*trace.Trace{"generated": gen, "fixture": studyTrace(t)} {
		got, want := SortedCircuitQueuingTimes(tr), naiveCircuitQueuingTimes(tr)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: sorted-then-expanded series (%d) differs from the naive expansion (%d)", name, len(got), len(want))
		}
		if QueueShapeOfSorted(got) != QueueShapeOf(tr) {
			t.Fatalf("%s: QueueShapeOfSorted disagrees with QueueShapeOf", name)
		}
		if m := stats.Median(want); QueueShapeOf(tr).MedianMinutes != m {
			t.Fatalf("%s: median %v, want %v", name, QueueShapeOf(tr).MedianMinutes, m)
		}
	}
}

func TestFig04QueueExecRatios(t *testing.T) {
	tr := studyTrace(t)
	ratios := QueueExecRatios(tr)
	med := stats.Median(ratios)
	// "the median ratio is around 10x".
	if med < 2 || med > 60 {
		t.Fatalf("ratio median = %v, want ~10x regime", med)
	}
	// "around 25% of the total jobs experience ratios which are 100x or
	// more".
	if f := stats.FractionAtLeast(ratios, 100); f < 0.1 || f > 0.45 {
		t.Fatalf("frac >=100x = %v, want ~0.25", f)
	}
	// "In around 30% of the total quantum jobs, the experienced queuing
	// time is at par or lower than the execution time".
	if f := stats.FractionBelow(ratios, 1); f < 0.1 || f > 0.5 {
		t.Fatalf("frac <=1x = %v, want ~0.3", f)
	}
}

func TestFig08UtilizationInverseToSize(t *testing.T) {
	tr := studyTrace(t)
	util := UtilizationByMachine(tr)
	// Small machines see high utilization; the large ones low (Fig 8).
	small, okS := util["ibmq_athens"]
	large, okL := util["ibmq_manhattan"]
	if !okS || !okL {
		t.Skip("fixture lacks jobs on comparison machines")
	}
	if small.Mean <= large.Mean {
		t.Fatalf("utilization: athens %v <= manhattan %v", small.Mean, large.Mean)
	}
	for m, v := range util {
		if v.Max > 1.0001 || v.Min < 0 {
			t.Fatalf("%s utilization outside [0,1]: %+v", m, v)
		}
	}
}

func TestFig09PendingJobsPublicDominates(t *testing.T) {
	tr := studyTrace(t)
	// The paper samples a week in March 2021.
	from := time.Date(2021, 3, 8, 0, 0, 0, 0, time.UTC)
	rows := PendingJobsByMachine(tr, from, from.AddDate(0, 0, 7))
	if len(rows) < 10 {
		t.Fatalf("rows = %d, want most of the fleet", len(rows))
	}
	var pub, priv []float64
	for _, r := range rows {
		if r.Machine == "ibmq_qasm_simulator" {
			continue
		}
		if r.Public {
			pub = append(pub, r.AvgPending)
		} else {
			priv = append(priv, r.AvgPending)
		}
	}
	if stats.Mean(pub) <= stats.Mean(priv) {
		t.Fatalf("public pending %v <= private %v", stats.Mean(pub), stats.Mean(priv))
	}
	// "Jobs are unequally distributed across machines": spread within
	// the fleet should exceed an order of magnitude.
	all := append(append([]float64{}, pub...), priv...)
	if stats.Max(all) < 20*(stats.Min(all)+0.1) {
		t.Fatalf("pending spread too narrow: [%v, %v]", stats.Min(all), stats.Max(all))
	}
}

func TestFig10QueuingByMachine(t *testing.T) {
	tr := studyTrace(t)
	q := QueuingByMachine(tr)
	athens, okA := q["ibmq_athens"]
	rome, okR := q["ibmq_rome"]
	if !okA || !okR {
		t.Skip("fixture lacks jobs on comparison machines")
	}
	// Public machines queue longer (Fig 10: "On public access machines,
	// the mean queuing times are of the order of multiple hours").
	if athens.Mean <= rome.Mean {
		t.Fatalf("athens mean queue %v <= rome %v", athens.Mean, rome.Mean)
	}
	if athens.Mean < 60 {
		t.Fatalf("athens mean queue = %v min, want multiple hours", athens.Mean)
	}
}

func TestFig11QueuingVsBatch(t *testing.T) {
	tr := studyTrace(t)
	buckets := ByBatchSize(tr, nil)
	var withData []BatchBucket
	for _, b := range buckets {
		if b.N >= 10 {
			withData = append(withData, b)
		}
	}
	if len(withData) < 3 {
		t.Fatalf("only %d populated batch buckets", len(withData))
	}
	first, last := withData[0], withData[len(withData)-1]
	// "as batch sizes increase, the effective queuing time per circuit
	// almost always decreases".
	if last.PerCircuitQueueMedianMin >= first.PerCircuitQueueMedianMin {
		t.Fatalf("per-circuit queue should fall with batch: %v -> %v",
			first.PerCircuitQueueMedianMin, last.PerCircuitQueueMedianMin)
	}
}

func TestFig12aCalibrationCrossover(t *testing.T) {
	tr := studyTrace(t)
	frac := CalibrationCrossovers(tr)
	// Paper: 21.9% crossover.
	if frac < 0.08 || frac > 0.45 {
		t.Fatalf("crossover fraction = %v, want ~0.22", frac)
	}
}

func TestFig13RuntimeByMachine(t *testing.T) {
	tr := studyTrace(t)
	rt := RuntimeByMachine(tr)
	athens, okA := rt["ibmq_athens"]
	manhattan, okM := rt["ibmq_manhattan"]
	if !okA || !okM {
		t.Skip("fixture lacks jobs on comparison machines")
	}
	// "A common trend ... larger machines have higher run times."
	if manhattan.Med <= athens.Med {
		t.Fatalf("per-circ runtime: manhattan %v <= athens %v", manhattan.Med, athens.Med)
	}
}

func TestFig14RuntimeProportionalToBatch(t *testing.T) {
	tr := studyTrace(t)
	trend := RuntimeVsBatch(tr)
	if trend.SlopeMinPerCircuit <= 0 {
		t.Fatalf("slope = %v, want positive (runtime grows with batch)", trend.SlopeMinPerCircuit)
	}
	if trend.Correlation < 0.7 {
		t.Fatalf("batch-runtime correlation = %v, want strong", trend.Correlation)
	}
}

func TestFig15PredictionCorrelations(t *testing.T) {
	tr := studyTrace(t)
	preds := PredictionCorrelations(tr, 80, 99)
	if len(preds) < 4 {
		t.Fatalf("only %d machines had enough jobs", len(preds))
	}
	highFull := 0
	for _, p := range preds {
		full := p.Correlations[len(p.Correlations)-1]
		if full >= 0.95 {
			highFull++
		}
		// Batch alone is the major contributor (paper: "The major
		// contributor to the correlation is the batch size").
		if p.Correlations[0] < 0.5 {
			t.Fatalf("%s: batch-only correlation = %v, want the dominant term", p.Machine, p.Correlations[0])
		}
	}
	// "the correlation is 0.95 or above on all but two machines".
	if float64(highFull) < 0.6*float64(len(preds)) {
		t.Fatalf("only %d/%d machines reach 0.95 full-feature correlation", highFull, len(preds))
	}
}

func TestFig16PredictionSeries(t *testing.T) {
	tr := studyTrace(t)
	// Use the machine with the most jobs for a stable series.
	byMachine := tr.JobsByMachine()
	best, bestN := "", 0
	for name, jobs := range byMachine {
		if len(jobs) > bestN {
			best, bestN = name, len(jobs)
		}
	}
	actual, predicted, err := PredictionSeries(tr, best, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(actual) != len(predicted) || len(actual) < 10 {
		t.Fatalf("series lengths %d/%d", len(actual), len(predicted))
	}
	if c := stats.Pearson(actual, predicted); c < 0.9 {
		t.Fatalf("%s actual-vs-predicted correlation = %v", best, c)
	}
}

func TestByBatchSizeDefaultEdges(t *testing.T) {
	tr := studyTrace(t)
	buckets := ByBatchSize(tr, nil)
	if len(buckets) != 7 {
		t.Fatalf("default buckets = %d, want 7", len(buckets))
	}
	total := 0
	for _, b := range buckets {
		total += b.N
	}
	if total != len(tr.Completed()) {
		t.Fatalf("buckets cover %d of %d jobs", total, len(tr.Completed()))
	}
}
