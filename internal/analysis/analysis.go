// Package analysis reproduces every table and figure of the paper's
// evaluation from a simulated trace (Figs 2-4, 8-16) or by running the
// compiler/simulator substrates directly (Figs 5-7, 12b). Each figure
// has one entry point returning plain data that the qcloud-analyze
// command formats; README.md's figure index maps figures to entry
// points.
package analysis

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"qcloud/internal/par"
	"qcloud/internal/predict"
	"qcloud/internal/stats"
	"qcloud/internal/trace"
)

// violinByMachine summarizes each machine's sample vector on a worker
// pool. Summaries land in name-indexed slots, so the result is
// identical for any worker count.
func violinByMachine(byMachine map[string][]float64) map[string]stats.ViolinSummary {
	names := make([]string, 0, len(byMachine))
	for m := range byMachine {
		names = append(names, m)
	}
	sort.Strings(names)
	summaries := make([]stats.ViolinSummary, len(names))
	par.ForEach(len(names), 0, func(i int) {
		summaries[i] = stats.Violin(byMachine[names[i]])
	})
	out := make(map[string]stats.ViolinSummary, len(names))
	for i, m := range names {
		out[m] = summaries[i]
	}
	return out
}

// MonthlyTrials is one month's machine-trial count (Fig 2a).
type MonthlyTrials struct {
	Month      time.Time
	Trials     int64
	Cumulative int64
}

// CumulativeTrials buckets executed trials (batch x shots) by end
// month and accumulates them — the Fig 2a growth curve.
func CumulativeTrials(tr *trace.Trace) []MonthlyTrials {
	byMonth := make(map[time.Time]int64)
	for _, j := range tr.Completed() {
		m := time.Date(j.EndTime.Year(), j.EndTime.Month(), 1, 0, 0, 0, 0, time.UTC)
		byMonth[m] += j.Trials()
	}
	months := make([]time.Time, 0, len(byMonth))
	for m := range byMonth {
		months = append(months, m)
	}
	sort.Slice(months, func(i, j int) bool { return months[i].Before(months[j]) })
	out := make([]MonthlyTrials, len(months))
	var cum int64
	for i, m := range months {
		cum += byMonth[m]
		out[i] = MonthlyTrials{Month: m, Trials: byMonth[m], Cumulative: cum}
	}
	return out
}

// StatusBreakdown returns the fraction of jobs per terminal status
// (Fig 2b).
func StatusBreakdown(tr *trace.Trace) map[trace.Status]float64 {
	counts := make(map[trace.Status]int)
	for _, j := range tr.Jobs {
		counts[j.Status]++
	}
	out := make(map[trace.Status]float64, len(counts))
	total := float64(len(tr.Jobs))
	for s, n := range counts {
		out[s] = float64(n) / total
	}
	return out
}

// SortedCircuitQueuingTimes expands each executed job's queuing time to
// its constituent circuits (every circuit in a batch waits once, as a
// whole) and returns the per-circuit queuing times in minutes, sorted
// ascending — the Fig 3 series. It sorts the per-job values and then
// expands them: a job's circuits share one value and equal values are
// interchangeable, so the array is the one sorting the expansion would
// give, for a sort over jobs instead of circuits.
func SortedCircuitQueuingTimes(tr *trace.Trace) []float64 {
	type jobQueue struct {
		minutes  float64
		circuits int
	}
	var jobs []jobQueue
	total := 0
	for _, j := range tr.Completed() {
		if j.BatchSize > 0 {
			jobs = append(jobs, jobQueue{j.QueueSeconds() / 60, j.BatchSize})
			total += j.BatchSize
		}
	}
	slices.SortFunc(jobs, func(a, b jobQueue) int { return cmp.Compare(a.minutes, b.minutes) })
	out := make([]float64, 0, total)
	for _, jq := range jobs {
		for c := 0; c < jq.circuits; c++ {
			out = append(out, jq.minutes)
		}
	}
	return out
}

// QueueShape summarizes the Fig 3 headline numbers.
type QueueShape struct {
	MedianMinutes float64
	FracUnderMin  float64 // "around 20% ... less than a minute"
	FracOver2h    float64 // "more than 30% ... greater than 2 hours"
	FracOverDay   float64 // "around 10% ... a day or even longer"
	TotalCircuits int
}

// QueueShapeOf computes the headline queuing-shape numbers.
func QueueShapeOf(tr *trace.Trace) QueueShape {
	return QueueShapeOfSorted(SortedCircuitQueuingTimes(tr))
}

// QueueShapeOfSorted computes the headline numbers from the series
// SortedCircuitQueuingTimes returns, for callers that also need the
// series itself.
func QueueShapeOfSorted(q []float64) QueueShape {
	return QueueShape{
		MedianMinutes: stats.QuantilesSorted(q, 0.5)[0],
		FracUnderMin:  stats.FractionBelow(q, 1),
		FracOver2h:    stats.FractionAtLeast(q, 120),
		FracOverDay:   stats.FractionAtLeast(q, 24*60),
		TotalCircuits: len(q),
	}
}

// QueueExecRatios returns per-job queuing:execution ratios, sorted
// ascending (Fig 4).
func QueueExecRatios(tr *trace.Trace) []float64 {
	var out []float64
	for _, j := range tr.Completed() {
		if e := j.ExecSeconds(); e > 0 {
			out = append(out, j.QueueSeconds()/e)
		}
	}
	sort.Float64s(out)
	return out
}

// UtilizationByMachine returns the Fig 8 violin summaries: the fraction
// of machine qubits used by each job's widest circuit, per machine.
func UtilizationByMachine(tr *trace.Trace) map[string]stats.ViolinSummary {
	byMachine := make(map[string][]float64)
	for _, j := range tr.Completed() {
		byMachine[j.Machine] = append(byMachine[j.Machine], j.Utilization())
	}
	return violinByMachine(byMachine)
}

// PendingRow is one machine's average pending-job count over a window
// (Fig 9).
type PendingRow struct {
	Machine    string
	Qubits     int
	Public     bool
	AvgPending float64
}

// PendingJobsByMachine averages each machine's sampled queue length
// over [from, to) — the paper uses a one-week window in March 2021.
// Machines with no samples in the window are omitted.
func PendingJobsByMachine(tr *trace.Trace, from, to time.Time) []PendingRow {
	var rows []PendingRow
	for _, ms := range tr.Machines {
		var sum float64
		n := 0
		for _, p := range ms.PendingSamples {
			if !p.Time.Before(from) && p.Time.Before(to) {
				sum += float64(p.Pending)
				n++
			}
		}
		if n == 0 {
			continue
		}
		rows = append(rows, PendingRow{
			Machine: ms.Name, Qubits: ms.Qubits, Public: ms.Public,
			AvgPending: sum / float64(n),
		})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Qubits != rows[j].Qubits {
			return rows[i].Qubits < rows[j].Qubits
		}
		return rows[i].Machine < rows[j].Machine
	})
	return rows
}

// QueuingByMachine returns Fig 10's per-machine queuing-time (minutes)
// violin summaries.
func QueuingByMachine(tr *trace.Trace) map[string]stats.ViolinSummary {
	byMachine := make(map[string][]float64)
	for _, j := range tr.Completed() {
		byMachine[j.Machine] = append(byMachine[j.Machine], j.QueueSeconds()/60)
	}
	return violinByMachine(byMachine)
}

// BatchBucket aggregates jobs whose batch size falls in [Lo, Hi)
// (Figs 11 and 14).
type BatchBucket struct {
	Lo, Hi int
	// PerJobQueueMin is the per-job queuing-time distribution (minutes).
	PerJobQueueMin stats.ViolinSummary
	// PerCircuitQueueMedianMin is the median queuing time divided by
	// batch size — the "effective queuing time per circuit".
	PerCircuitQueueMedianMin float64
	// PerJobRunMin is the per-job runtime distribution (minutes).
	PerJobRunMin stats.ViolinSummary
	N            int
}

// ByBatchSize buckets executed jobs into batch-size ranges and
// aggregates their queuing and running times.
func ByBatchSize(tr *trace.Trace, edges []int) []BatchBucket {
	if len(edges) < 2 {
		edges = []int{1, 10, 50, 100, 200, 400, 700, 901}
	}
	buckets := make([]BatchBucket, len(edges)-1)
	queues := make([][]float64, len(buckets))
	perCirc := make([][]float64, len(buckets))
	runs := make([][]float64, len(buckets))
	for i := range buckets {
		buckets[i].Lo, buckets[i].Hi = edges[i], edges[i+1]
	}
	for _, j := range tr.Completed() {
		for i := range buckets {
			if j.BatchSize >= buckets[i].Lo && j.BatchSize < buckets[i].Hi {
				q := j.QueueSeconds() / 60
				queues[i] = append(queues[i], q)
				perCirc[i] = append(perCirc[i], q/float64(j.BatchSize))
				runs[i] = append(runs[i], j.ExecSeconds()/60)
				break
			}
		}
	}
	for i := range buckets {
		buckets[i].PerJobQueueMin = stats.Violin(queues[i])
		buckets[i].PerCircuitQueueMedianMin = stats.Median(perCirc[i])
		buckets[i].PerJobRunMin = stats.Violin(runs[i])
		buckets[i].N = len(queues[i])
	}
	return buckets
}

// CalibrationCrossovers returns the fraction of jobs whose compile-time
// calibration epoch differs from their execution epoch (Fig 12a: the
// paper estimates 21.9%).
func CalibrationCrossovers(tr *trace.Trace) float64 {
	if len(tr.Jobs) == 0 {
		return 0
	}
	crossed := 0
	for _, j := range tr.Jobs {
		if j.CrossedCalibration() {
			crossed++
		}
	}
	return float64(crossed) / float64(len(tr.Jobs))
}

// RuntimeByMachine returns Fig 13's per-circuit run-time (minutes)
// violin summaries per machine: job execution time amortized over its
// batch.
func RuntimeByMachine(tr *trace.Trace) map[string]stats.ViolinSummary {
	byMachine := make(map[string][]float64)
	for _, j := range tr.Completed() {
		if j.ExecSeconds() <= 0 {
			continue
		}
		perCirc := j.ExecSeconds() / float64(j.BatchSize) / 60
		byMachine[j.Machine] = append(byMachine[j.Machine], perCirc)
	}
	return violinByMachine(byMachine)
}

// RuntimeTrend is the Fig 14 scatter with its least-squares trend line
// (runtime in minutes vs batch size).
type RuntimeTrend struct {
	// SlopeMinPerCircuit and InterceptMin define the red trend line.
	SlopeMinPerCircuit, InterceptMin float64
	// Correlation is Pearson between batch size and runtime.
	Correlation float64
	N           int
}

// RuntimeVsBatch fits runtime-vs-batch across executed jobs.
func RuntimeVsBatch(tr *trace.Trace) RuntimeTrend {
	var xs, ys []float64
	for _, j := range tr.Completed() {
		if j.ExecSeconds() <= 0 {
			continue
		}
		xs = append(xs, float64(j.BatchSize))
		ys = append(ys, j.ExecSeconds()/60)
	}
	out := RuntimeTrend{N: len(xs), Correlation: stats.Pearson(xs, ys)}
	X := make([][]float64, len(xs))
	for i, x := range xs {
		X[i] = []float64{1, x}
	}
	if beta, err := stats.LinearFit(X, ys); err == nil {
		out.InterceptMin, out.SlopeMinPerCircuit = beta[0], beta[1]
	}
	return out
}

// MachinePrediction is one machine's Fig 15 column: correlation per
// cumulative feature set.
type MachinePrediction struct {
	Machine string
	// Correlations[i] corresponds to predict.CumulativeSets()[i].
	Correlations []float64
	Jobs         int
}

// PredictionCorrelations trains the Π(aᵢ+bᵢxᵢ) model per machine for
// each cumulative feature set and reports test-set Pearson correlation
// (Fig 15). Machines with fewer than minJobs executed jobs are skipped.
func PredictionCorrelations(tr *trace.Trace, minJobs int, seed int64) []MachinePrediction {
	if minJobs <= 0 {
		minJobs = 60
	}
	sets := predict.CumulativeSets()
	byMachine := tr.JobsByMachine()
	names := make([]string, 0, len(byMachine))
	for name := range byMachine {
		names = append(names, name)
	}
	sort.Strings(names)
	// Per-machine model training is independent; fan it out and keep
	// name-order by collecting into indexed slots.
	preds := make([]*MachinePrediction, len(names))
	par.ForEach(len(names), 0, func(i int) {
		name := names[i]
		jobs := byMachine[name]
		executed := 0
		for _, j := range jobs {
			if j.Status != trace.StatusCancelled {
				executed++
			}
		}
		if executed < minJobs {
			return
		}
		mp := &MachinePrediction{Machine: name, Jobs: executed}
		for _, set := range sets {
			ev, err := predict.TrainTest(jobs, set, seed)
			if err != nil {
				mp.Correlations = append(mp.Correlations, 0)
				continue
			}
			mp.Correlations = append(mp.Correlations, ev.Correlation)
		}
		preds[i] = mp
	})
	var out []MachinePrediction
	for _, mp := range preds {
		if mp != nil {
			out = append(out, *mp)
		}
	}
	return out
}

// PredictionSeries returns the Fig 16 actual-vs-predicted test series
// for one machine using the full feature set.
func PredictionSeries(tr *trace.Trace, machine string, seed int64) (actual, predicted []float64, err error) {
	jobs := tr.JobsByMachine()[machine]
	sets := predict.CumulativeSets()
	ev, err := predict.TrainTest(jobs, sets[len(sets)-1], seed)
	if err != nil {
		return nil, nil, err
	}
	return ev.TestActual, ev.TestPredicted, nil
}
