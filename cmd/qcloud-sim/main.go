// qcloud-sim generates the two-year synthetic study trace: the
// workload model produces the study's job stream, an event-driven
// cloud session queues and executes it against the background load,
// and the result is written as CSV (jobs) and/or JSON (jobs + machine
// queue samples). With -events the session's lifecycle stream is
// tallied live as the fleet advances.
//
// Fault injection is opt-in via -faults (a workload.FaultScenarios
// preset).
//
// -journal streams the run into a durable journal directory (crash-safe
// WAL + a session checkpoint every -journal-ckpt-days) instead of
// holding the trace in memory; a run killed at any point — SIGKILL
// included — resumes with -recover, at any -workers and under the same
// -faults, and finishes with output byte-identical to an uninterrupted
// run.
//
// Usage:
//
//	qcloud-sim -seed 42 -jobs 6200 -workers 8 -csv trace.csv -json trace.json
//	qcloud-sim -seed 42 -events
//	qcloud-sim -seed 42 -faults adversarial -journal run.journal -csv trace.csv
//	qcloud-sim -seed 42 -faults adversarial -journal run.journal -recover -workers 4 -csv trace.csv
//	qcloud-sim -seed 42 -q -cpuprofile cpu.prof   # then: go tool pprof -top cpu.prof
//
// -tenants runs a multi-tenant brokered session instead: a
// workload.TenantScenarios preset builds the tenant queues plus a
// contention stream, a tenant.Broker admits jobs by time-decayed
// fair share, and the per-queue fairness table is printed after the
// run.
//
//	qcloud-sim -seed 42 -tenants skewed -days 21
//	qcloud-sim -seed 42 -tenants priority-inversion -preempt off
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/par"
	"qcloud/internal/prof"
	"qcloud/internal/tenant"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qcloud-sim: ")
	var (
		seed     = flag.Int64("seed", 42, "random seed; the same seed reproduces the trace byte for byte")
		jobs     = flag.Int("jobs", 6200, "expected study job count")
		workers  = flag.Int("workers", 0, "worker pool size for the fleet sweep (0 = NumCPU, 1 = serial; output is identical either way)")
		csvPath  = flag.String("csv", "", "write job records as CSV to this path")
		jsPath   = flag.String("json", "", "write the full trace (jobs + machine stats) as JSON to this path")
		events   = flag.Bool("events", false, "subscribe to the session event stream and print per-kind totals")
		faults   = flag.String("faults", "", "fault-injection scenario preset (see -faults list)")
		journal  = flag.String("journal", "", "durable journal directory: stream job records to disk with auto-checkpoints instead of holding the trace in memory")
		recov    = flag.Bool("recover", false, "resume a killed -journal run from its journal directory and finish it")
		jrnlDays = flag.Float64("journal-ckpt-days", 30, "auto-checkpoint cadence for -journal, in simulated days")
		days     = flag.Float64("days", 0, "length of the simulated window in days (0 = the full two-year study window)")
		tenants  = flag.String("tenants", "", "multi-tenant scenario preset: run a brokered session and print the fairness table (see -tenants list)")
		tcount   = flag.Int("tenant-count", 0, "tenant queue count for -tenants (0 = scenario default)")
		preempt  = flag.String("preempt", "scenario", "broker preemption for -tenants: scenario, on, or off")
		quiet    = flag.Bool("q", false, "suppress the summary")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this path (output is unaffected)")
		memProf  = flag.String("memprofile", "", "write a heap profile at exit to this path (output is unaffected)")
	)
	flag.Parse()
	if *recov && *journal == "" {
		log.Fatal("-recover requires -journal")
	}
	if *tenants != "" && *journal != "" {
		log.Fatal("-tenants cannot combine with -journal/-recover")
	}
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

	start, end := backend.StudyStart, backend.StudyEnd
	if *days > 0 {
		end = start.Add(time.Duration(*days * 24 * float64(time.Hour)))
	}
	cfg := cloud.Config{Seed: *seed, Workers: *workers, Start: start, End: end}
	if *journal != "" {
		cfg.Journal = &cloud.JournalConfig{
			Dir:             *journal,
			CheckpointEvery: time.Duration(*jrnlDays * 24 * float64(time.Hour)),
		}
	}
	if *faults != "" {
		sc, err := workload.FindFaultScenario(*faults)
		if err != nil {
			var names []string
			for _, s := range workload.FaultScenarios() {
				names = append(names, s.Name)
			}
			log.Fatalf("%v (available: %s)", err, strings.Join(names, ", "))
		}
		cfg = sc.Apply(cfg)
	}
	if *tenants != "" {
		runTenants(cfg, *tenants, *tcount, *jobs, *preempt, *events, *csvPath, *jsPath, *quiet)
		return
	}
	var sess *cloud.Session
	if *recov {
		if sess, err = cloud.Recover(cfg); err != nil {
			log.Fatal(err)
		}
		log.Printf("recovered session from %s (%d accepted submissions replayed)", *journal, sess.JournaledSubmits())
	} else if sess, err = cloud.Open(cfg); err != nil {
		log.Fatal(err)
	}
	var tallied <-chan map[cloud.EventKind]int64
	if *events {
		tallied = tallyEvents(sess)
	}
	// A fresh session gets the generated study stream (SubmitRetried
	// rides out the fault injector's transient submission rejections).
	// A recovered journal session replays its accepted submissions from
	// the input log, so only the unsubmitted suffix of the (fully
	// deterministic) stream is submitted again.
	specs := workload.Generate(workload.Config{Seed: *seed, TotalJobs: *jobs, Start: start, End: end})
	for _, s := range specs[min(int(sess.JournaledSubmits()), len(specs)):] {
		if _, err := sess.SubmitRetried(s, 0); err != nil {
			log.Fatal(err)
		}
	}
	tr, err := sess.Run()
	if err != nil {
		log.Fatal(err)
	}

	writeOutputs(tr, *csvPath, *jsPath)
	if *events {
		printEventTally(<-tallied)
	}
	if *quiet {
		return
	}
	printSummary(tr, *csvPath, *jsPath)
}

func writeOutputs(tr *trace.Trace, csvPath, jsPath string) {
	if csvPath != "" {
		writeFile(csvPath, func(w io.Writer) error { return trace.WriteCSV(w, tr.Jobs) })
	}
	if jsPath != "" {
		writeFile(jsPath, func(w io.Writer) error { return trace.WriteJSON(w, tr) })
	}
}

// writeFile creates path, has write fill it and closes it; any failure
// ends the run.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := write(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

// tallyEvents counts the session's events by kind from its observation
// stream while the fleet advances. The totals arrive on the returned
// channel once the session has ended and closed the stream.
func tallyEvents(sess *cloud.Session) <-chan map[cloud.EventKind]int64 {
	stream, err := sess.Observe(cloud.EventFilter{})
	if err != nil {
		log.Fatal(err)
	}
	tallied := make(chan map[cloud.EventKind]int64, 1)
	go func() {
		counts := make(map[cloud.EventKind]int64)
		for ev := range stream {
			counts[ev.Kind]++
		}
		tallied <- counts
	}()
	return tallied
}

func printEventTally(counts map[cloud.EventKind]int64) {
	fmt.Println("session events (study + background):")
	for _, k := range []cloud.EventKind{
		cloud.EventEnqueue, cloud.EventStart, cloud.EventDone, cloud.EventError,
		cloud.EventCancel, cloud.EventDowntime, cloud.EventPendingSample,
		cloud.EventMachineDown, cloud.EventMachineUp, cloud.EventRetry, cloud.EventRequeue,
	} {
		fmt.Printf("  %-15s %d\n", k, counts[k])
	}
}

func printSummary(tr *trace.Trace, csvPath, jsPath string) {
	var circuits, trials int64
	statuses := map[trace.Status]int{}
	for _, j := range tr.Jobs {
		circuits += int64(j.BatchSize)
		trials += j.Trials()
		statuses[j.Status]++
	}
	fmt.Printf("jobs:     %d\n", len(tr.Jobs))
	fmt.Printf("circuits: %d\n", circuits)
	fmt.Printf("trials:   %d\n", trials)
	fmt.Printf("statuses: DONE=%d ERROR=%d CANCELLED=%d\n",
		statuses[trace.StatusDone], statuses[trace.StatusError], statuses[trace.StatusCancelled])
	if csvPath == "" && jsPath == "" {
		fmt.Println("(no -csv/-json output requested; summary only)")
	}
}

// runTenants is the -tenants mode: build the scenario's quota tree and
// contention stream, drive it through a tenant.Broker over the session
// and print the per-queue fairness table plus run-level metrics.
func runTenants(cfg cloud.Config, scenario string, tenantCount, jobs int, preempt string, events bool, csvPath, jsPath string, quiet bool) {
	sc, err := workload.FindTenantScenario(scenario)
	if err != nil {
		var names []string
		for _, s := range workload.TenantScenarios() {
			names = append(names, s.Name)
		}
		log.Fatalf("%v (available: %s)", err, strings.Join(names, ", "))
	}
	tcfg, subs := sc.Build(workload.TenantConfig{
		Seed: cfg.Seed, Start: cfg.Start, End: cfg.End,
		Tenants: tenantCount, TotalJobs: jobs,
	})
	switch preempt {
	case "scenario":
	case "on":
		tcfg.Preemption = true
	case "off":
		tcfg.Preemption = false
	default:
		log.Fatalf("-preempt must be scenario, on or off (got %q)", preempt)
	}
	b, err := tenant.Open(cfg, tcfg)
	if err != nil {
		log.Fatal(err)
	}
	var tallied <-chan map[cloud.EventKind]int64
	if events {
		tallied = tallyEvents(b.Session())
	}
	if err := b.Play(subs); err != nil {
		log.Fatal(err)
	}
	tr, err := b.Run()
	if err != nil {
		log.Fatal(err)
	}
	writeOutputs(tr, csvPath, jsPath)
	if events {
		printEventTally(<-tallied)
	}
	if quiet {
		return
	}
	fmt.Printf("tenant scenario %q: %d submissions, preemption=%v\n", sc.Name, len(subs), tcfg.Preemption)
	if err := b.DumpStates(os.Stdout); err != nil {
		log.Fatal(err)
	}
	m := b.Metrics()
	fmt.Printf("fair-share: jain=%.4f maxdev=%.4f qpu-seconds=%.0f preemptions=%d\n",
		m.JainIndex, m.MaxDeviation, m.TotalQPUSeconds, m.Preemptions)
	printSummary(tr, csvPath, jsPath)
}
