// qcloud-analyze reproduces every figure of the paper from a trace:
// either one previously written by qcloud-sim (-trace trace.json) or a
// freshly generated one (-seed). Trace-driven figures (2-4, 8-16) read
// the trace; substrate-driven figures (5, 6, 7, 12b) run the compiler,
// topology analysis and noisy simulator directly.
//
// Usage:
//
//	qcloud-analyze -seed 42                 # generate and analyze
//	qcloud-analyze -trace trace.json       # analyze a stored trace
//	qcloud-analyze -seed 42 -fig 3,4,12a   # subset of figures
//	qcloud-analyze -seed 42 -cpuprofile cpu.prof   # then: go tool pprof -top cpu.prof
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"qcloud/internal/analysis"
	"qcloud/internal/backend"
	"qcloud/internal/circuit/gens"
	"qcloud/internal/cloud"
	"qcloud/internal/par"
	"qcloud/internal/predict"
	"qcloud/internal/prof"
	"qcloud/internal/stats"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qcloud-analyze: ")
	var (
		tracePath = flag.String("trace", "", "JSON trace from qcloud-sim (empty: generate with -seed)")
		seed      = flag.Int64("seed", 42, "seed for generated traces and experiments")
		jobs      = flag.Int("jobs", 6200, "study job count when generating")
		figs      = flag.String("fig", "all", "comma-separated figure ids ("+strings.Join(figIDs, ",")+") or 'all'")
		largeQFT  = flag.Int("fig5-large", 64, "large QFT size for Fig 5 (the paper uses 980; that run takes hours)")
		workers   = flag.Int("workers", 0, "worker pool size for simulation and the analysis sweeps (0 = NumCPU, 1 = serial; results are identical either way)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this path (output is unaffected)")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit to this path (output is unaffected)")
	)
	flag.Parse()
	want := map[string]bool{}
	for _, f := range strings.Split(*figs, ",") {
		f = strings.TrimSpace(f)
		if f != "all" && !slices.Contains(figIDs, f) {
			fmt.Fprintf(os.Stderr, "qcloud-analyze: unknown -fig id %q (want %s or all)\n", f, strings.Join(figIDs, ","))
			os.Exit(2)
		}
		want[f] = true
	}
	all := want["all"]
	show := func(id string) bool { return all || want[id] }
	par.SetWorkers(*workers)
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
	}()

	// Only the trace figures read the trace: a run of substrate figures
	// alone neither loads nor simulates one.
	var tr *trace.Trace
	if slices.ContainsFunc(traceFigs, show) {
		if tr, err = loadOrGenerate(*tracePath, *seed, *jobs); err != nil {
			log.Fatal(err)
		}
	}

	if show("2a") {
		fig2a(tr)
	}
	if show("2b") {
		fig2b(tr)
	}
	if show("3") {
		fig3(tr)
	}
	if show("4") {
		fig4(tr)
	}
	if show("5") {
		fig5(*seed, *largeQFT)
	}
	if show("6") {
		fig6()
	}
	if show("7") {
		fig7(*seed)
	}
	if show("8") {
		fig8(tr)
	}
	if show("9") {
		fig9(tr)
	}
	if show("10") {
		fig10(tr)
	}
	if show("11") {
		fig11(tr)
	}
	if show("12a") {
		fig12a(tr)
	}
	if show("12b") {
		fig12b(*seed)
	}
	if show("13") {
		fig13(tr)
	}
	if show("14") {
		fig14(tr)
	}
	if show("15") {
		fig15(tr, *seed)
	}
	if show("16") {
		fig16(tr, *seed)
	}
}

// figIDs are the figure ids -fig takes, in print order; traceFigs
// are those drawn from the trace.
var (
	figIDs    = []string{"2a", "2b", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12a", "12b", "13", "14", "15", "16"}
	traceFigs = []string{"2a", "2b", "3", "4", "8", "9", "10", "11", "12a", "13", "14", "15", "16"}
)

func loadOrGenerate(path string, seed int64, jobs int) (*trace.Trace, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.ReadJSON(f)
	}
	specs := workload.Generate(workload.Config{Seed: seed, TotalJobs: jobs})
	return cloud.Simulate(cloud.Config{Seed: seed}, specs)
}

func header(id, title string) {
	fmt.Printf("\n== Fig %-3s %s\n", id, title)
}

func fig2a(tr *trace.Trace) {
	header("2a", "cumulative machine trials over the study (log-scale growth)")
	months := analysis.CumulativeTrials(tr)
	for _, m := range months {
		fmt.Printf("  %s  month=%-12d cumulative=%d\n", m.Month.Format("2006-01"), m.Trials, m.Cumulative)
	}
}

func fig2b(tr *trace.Trace) {
	header("2b", "execution status breakdown (paper: ~95% DONE)")
	b := analysis.StatusBreakdown(tr)
	for _, s := range []trace.Status{trace.StatusDone, trace.StatusError, trace.StatusCancelled} {
		fmt.Printf("  %-10s %5.1f%%\n", s, b[s]*100)
	}
}

func fig3(tr *trace.Trace) {
	header("3", "sorted per-circuit queuing times (paper: ~20% <1min, median ~60min, ~10% >=1day)")
	qs := analysis.SortedCircuitQueuingTimes(tr)
	s := analysis.QueueShapeOfSorted(qs)
	fmt.Printf("  circuits:       %d\n", s.TotalCircuits)
	fmt.Printf("  median:         %.1f min\n", s.MedianMinutes)
	fmt.Printf("  frac < 1 min:   %.1f%%\n", s.FracUnderMin*100)
	fmt.Printf("  frac > 2 h:     %.1f%%\n", s.FracOver2h*100)
	fmt.Printf("  frac >= 1 day:  %.1f%%\n", s.FracOverDay*100)
	ps := []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99}
	for i, v := range stats.QuantilesSorted(qs, ps...) {
		fmt.Printf("  p%-4.0f           %.2f min\n", ps[i]*100, v)
	}
}

func fig4(tr *trace.Trace) {
	header("4", "queuing:execution ratio per job (paper: median ~10x, 25% >=100x)")
	ratios := analysis.QueueExecRatios(tr)
	fmt.Printf("  jobs:          %d\n", len(ratios))
	fmt.Printf("  median ratio:  %.1fx\n", stats.Median(ratios))
	fmt.Printf("  frac <= 1x:    %.1f%%\n", stats.FractionBelow(ratios, 1)*100)
	fmt.Printf("  frac >= 100x:  %.1f%%\n", stats.FractionAtLeast(ratios, 100)*100)
}

func fig5(seed int64, largeQFT int) {
	header("5", fmt.Sprintf("per-pass compile time: QFT(8)->melbourne vs QFT(%d)->fake1000 (paper: 100-1000x growth)", largeQFT))
	small := backend.FleetByName()["ibmq_16_melbourne"]
	costs, err := analysis.CompilePassProfile(8, small, largeQFT, nil, seed)
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(costs, func(i, j int) bool { return costs[i].LargeSec > costs[j].LargeSec })
	fmt.Printf("  %-34s %12s %12s %8s\n", "pass", "small (s)", "large (s)", "ratio")
	for _, c := range costs {
		fmt.Printf("  %-34s %12.6f %12.6f %8.1f\n", c.Pass, c.SmallSec, c.LargeSec, c.LargeSec/(c.SmallSec+1e-12))
	}
}

func fig6() {
	header("6", "qubits vs bisection bandwidth (paper: Manhattan 65q -> 3; 8x8 mesh would be 8)")
	rows := analysis.BisectionTable(backend.Fleet())
	for _, r := range rows {
		fmt.Printf("  %-22s qubits=%-3d bisection=%d\n", r.Machine, r.Qubits, r.BisectionBandwidth)
	}
}

func fig7(seed int64) {
	header("7", "4q QFT fidelity vs CX metrics across machines (paper: POS 62%..19%, tracks CX metrics)")
	byName := backend.FleetByName()
	var machines []*backend.Machine
	for _, n := range []string{"ibmq_casablanca", "ibmq_toronto", "ibmq_guadalupe", "ibmq_rome", "ibmq_manhattan"} {
		machines = append(machines, byName[n])
	}
	at := time.Date(2021, 3, 10, 12, 0, 0, 0, time.UTC)
	rows, err := analysis.FidelityVsCXMetrics(machines, 4, 800, at, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %-18s %8s %9s %9s %12s %12s\n", "machine", "POS(%)", "CX-Depth", "CX-Total", "CX-D*Err(%)", "CX-T*Err(%)")
	for _, r := range rows {
		fmt.Printf("  %-18s %8.1f %9d %9d %12.1f %12.1f\n", r.Machine, r.POS, r.CXDepth, r.CXTotal, r.CXDepthErr, r.CXTotalErr)
	}
}

func fig8(tr *trace.Trace) {
	header("8", "machine utilization by circuits (paper: high on small machines, low on large)")
	util := analysis.UtilizationByMachine(tr)
	printViolins(util, "%")
}

func fig9(tr *trace.Trace) {
	header("9", "average pending jobs per machine, one week of March 2021 (paper: public >> private)")
	from := time.Date(2021, 3, 8, 0, 0, 0, 0, time.UTC)
	rows := analysis.PendingJobsByMachine(tr, from, from.AddDate(0, 0, 7))
	for _, r := range rows {
		tag := "private"
		if r.Public {
			tag = "PUBLIC"
		}
		fmt.Printf("  %-22s qubits=%-3d %-7s avgPending=%.1f\n", r.Machine, r.Qubits, tag, r.AvgPending)
	}
}

func fig10(tr *trace.Trace) {
	header("10", "queuing time distribution vs machine, minutes (paper: public means are hours)")
	printViolins(analysis.QueuingByMachine(tr), "min")
}

func fig11(tr *trace.Trace) {
	header("11", "queuing time vs batch size (paper: per-job grows, per-circuit falls)")
	buckets := analysis.ByBatchSize(tr, nil)
	fmt.Printf("  %-12s %6s %14s %18s\n", "batch", "jobs", "perJob med(min)", "perCircuit med(min)")
	for _, b := range buckets {
		if b.N == 0 {
			continue
		}
		fmt.Printf("  [%3d,%3d)    %6d %14.1f %18.3f\n", b.Lo, b.Hi, b.N, b.PerJobQueueMin.Med, b.PerCircuitQueueMedianMin)
	}
}

func fig12a(tr *trace.Trace) {
	header("12a", "calibration crossovers (paper: 21.9% of jobs)")
	fmt.Printf("  crossover: %.1f%% of %d jobs\n", analysis.CalibrationCrossovers(tr)*100, len(tr.Jobs))
}

func fig12b(seed int64) {
	header("12b", "noise-aware layout churn across calibration cycles (paper: mappings change)")
	m := backend.FleetByName()["ibmq_toronto"]
	t0 := time.Date(2021, 2, 1, 12, 0, 0, 0, time.UTC)
	div, err := analysis.LayoutDivergenceOf(gens.QFT(4), m, t0, 14, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  layout changed across %.0f%% of consecutive calibration cycles on %s\n", div.ChangedFraction*100, m.Name)
	for d, layout := range div.Layouts {
		if d > 4 {
			fmt.Printf("  ... (%d more days)\n", len(div.Layouts)-d)
			break
		}
		fmt.Printf("  day %d: logical->physical %v\n", d, layout)
	}
}

func fig13(tr *trace.Trace) {
	header("13", "run time per circuit vs machine, minutes (paper: larger machines slower)")
	printViolins(analysis.RuntimeByMachine(tr), "min")
}

func fig14(tr *trace.Trace) {
	header("14", "run time vs batch size (paper: proportional)")
	trend := analysis.RuntimeVsBatch(tr)
	fmt.Printf("  trend: runtime(min) = %.3f + %.4f * batch  (r=%.3f over %d jobs)\n",
		trend.InterceptMin, trend.SlopeMinPerCircuit, trend.Correlation, trend.N)
}

func fig15(tr *trace.Trace, seed int64) {
	header("15", "predicted vs actual runtime correlation per machine (paper: >=0.95 on all but two)")
	preds := analysis.PredictionCorrelations(tr, 80, seed)
	sets := predict.CumulativeSets()
	fmt.Printf("  %-22s", "machine")
	for _, set := range sets {
		fmt.Printf(" %9s", set[len(set)-1])
	}
	fmt.Println()
	for _, p := range preds {
		fmt.Printf("  %-22s", p.Machine)
		for _, c := range p.Correlations {
			fmt.Printf(" %9.3f", c)
		}
		fmt.Println()
	}
}

func fig16(tr *trace.Trace, seed int64) {
	header("16", "actual vs predicted runtime series (paper: Manhattan high corr, Vigo poorer)")
	byMachine := tr.JobsByMachine()
	names := make([]string, 0, len(byMachine))
	for n := range byMachine {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return len(byMachine[names[i]]) > len(byMachine[names[j]]) })
	shown := 0
	for _, name := range names {
		actual, predicted, err := analysis.PredictionSeries(tr, name, seed)
		if err != nil {
			continue
		}
		fmt.Printf("  %-22s test jobs=%-4d corr=%.3f  (first 5: actual %s / predicted %s)\n",
			name, len(actual), stats.Pearson(actual, predicted),
			fmtSeries(actual, 5), fmtSeries(predicted, 5))
		shown++
		if shown == 4 {
			break
		}
	}
}

func fmtSeries(xs []float64, n int) string {
	if len(xs) > n {
		xs = xs[:n]
	}
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.0fs", x)
	}
	return strings.Join(parts, ",")
}

func printViolins(v map[string]stats.ViolinSummary, unit string) {
	names := make([]string, 0, len(v))
	for n := range v {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("  %-22s %5s %8s %8s %8s %8s %8s\n", "machine", "n", "p5", "q1", "med", "q3", "p95")
	for _, n := range names {
		s := v[n]
		fmt.Printf("  %-22s %5d %8.2f %8.2f %8.2f %8.2f %8.2f  %s\n", n, s.N, s.P5, s.Q1, s.Med, s.Q3, s.P95, unit)
	}
}
