// Command qcloud-load is the psq-style load-generator client: it
// generates the study workload, drives it into a qcloud-dispatcher as
// idempotent submissions (retrying through dispatcher restarts), seals
// the stream, optionally waits for the fleet of workers to drain it,
// tallies the terminal event stream, and fetches the merged result
// CSVs.
//
// With -local it runs the same workload in-process instead — the
// single-process reference whose outputs a dispatcher + N workers run
// must reproduce byte for byte (CI's e2e-daemons job cmp's the two).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/dispatch"
	"qcloud/internal/dispatch/wire"
	"qcloud/internal/qsim"
	"qcloud/internal/trace"
	"qcloud/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qcloud-load: ")
	var (
		server    = flag.String("server", "http://127.0.0.1:8042", "dispatcher base URL")
		seed      = flag.Int64("seed", 1, "workload seed (must match the dispatcher's)")
		jobs      = flag.Int("jobs", 6200, "expected study job count")
		days      = flag.Float64("days", 0, "submission window in days (0 = full study window)")
		clientID  = flag.String("client", "load", "idempotency-key namespace (keys are <client>/<index>)")
		execW     = flag.Int("exec-width", 0, "exec-plan width cap (0 = default)")
		execB     = flag.Int("exec-batch", 0, "exec-plan batch cap (0 = default)")
		execS     = flag.Int("exec-shots", 0, "exec-plan shot cap (0 = default)")
		wait      = flag.Bool("wait", false, "after sealing, poll until every submission is terminal")
		retryFor  = flag.Duration("retry-for", 60*time.Second, "how long to retry an unreachable dispatcher per call")
		poll      = flag.Duration("poll", 100*time.Millisecond, "status poll interval for -wait")
		events    = flag.Bool("events", false, "tally the dispatcher's terminal event stream after the run")
		traceCSV  = flag.String("trace-csv", "", "write the merged trace-plane CSV here (needs only the sealed stream, so it does not wait for jobs to finish)")
		countsCSV = flag.String("counts-csv", "", "write the merged counts-plane CSV here")
		local     = flag.Bool("local", false, "run in-process instead of against a dispatcher (reference mode)")
		simW      = flag.Int("workers", 0, "parallelism for -local (0 = all cores; output identical at any value)")
		quiet     = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	start, end := backend.StudyStart, backend.StudyEnd
	if *days > 0 {
		end = start.Add(time.Duration(*days * 24 * float64(time.Hour)))
	}
	specs := workload.Generate(workload.Config{Seed: *seed, TotalJobs: *jobs, Start: start, End: end})
	caps := wire.ExecCaps{MaxWidth: *execW, MaxBatch: *execB, MaxShots: *execS}
	plans := make([]wire.Spec, len(specs))
	for i, js := range specs {
		plans[i] = wire.Plan(js, caps, *seed, i)
	}
	logf("workload: %d jobs over %s", len(plans), end.Sub(start))

	if *local {
		runLocal(plans, *seed, start, end, *simW, *traceCSV, *countsCSV, logf)
		return
	}

	cl := &dispatch.Client{Server: *server}
	t0 := time.Now()
	dups := 0
	for i, p := range plans {
		key := fmt.Sprintf("%s/%d", *clientID, i)
		resp, err := submitRetried(cl, key, p, *retryFor)
		if err != nil {
			log.Fatalf("submit %d: %v", i, err)
		}
		if resp.Dup {
			dups++
		}
		if (i+1)%5000 == 0 {
			logf("submitted %d/%d", i+1, len(plans))
		}
	}
	if err := retried(*retryFor, func() error { return cl.Seal() }); err != nil {
		log.Fatalf("seal: %v", err)
	}
	logf("submitted %d (%d duplicates) and sealed in %s", len(plans), dups, time.Since(t0).Round(time.Millisecond))

	needWait := *wait || *countsCSV != ""
	if needWait {
		for {
			st, err := cl.Status()
			if err != nil {
				logf("status: %v (retrying)", err)
				time.Sleep(*poll)
				continue
			}
			if st.Terminal() >= st.Jobs && st.Sealed {
				logf("drained: %d done, %d failed, %d cancelled (%d workers registered)",
					st.Done, st.Failed, st.Cancelled, len(st.Workers))
				break
			}
			time.Sleep(*poll)
		}
	}
	if *events {
		tallyEvents(cl, logf)
	}
	if *traceCSV != "" {
		var data []byte
		err := retried(*retryFor, func() error {
			var err error
			data, err = cl.TraceCSV()
			return err
		})
		if err != nil {
			log.Fatalf("trace: %v", err)
		}
		if err := os.WriteFile(*traceCSV, data, 0o644); err != nil {
			log.Fatal(err)
		}
		logf("wrote %s (%d bytes)", *traceCSV, len(data))
	}
	if *countsCSV != "" {
		var data []byte
		err := retried(*retryFor, func() error {
			var err error
			data, err = cl.CountsCSV(false)
			return err
		})
		if err != nil {
			log.Fatalf("counts: %v", err)
		}
		if err := os.WriteFile(*countsCSV, data, 0o644); err != nil {
			log.Fatal(err)
		}
		logf("wrote %s (%d bytes)", *countsCSV, len(data))
	}
}

// submitRetried rides out transient dispatcher unavailability (a
// restart mid-load): the idempotency key makes blind resubmission
// safe.
func submitRetried(cl *dispatch.Client, key string, p wire.Spec, window time.Duration) (wire.SubmitResponse, error) {
	var resp wire.SubmitResponse
	err := retried(window, func() error {
		var err error
		resp, err = cl.Submit(key, p)
		return err
	})
	return resp, err
}

// retried retries fn with a short sleep until it succeeds or the
// window closes.
func retried(window time.Duration, fn func() error) error {
	deadline := time.Now().Add(window)
	for {
		err := fn()
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// tallyEvents drains the observable stream and prints per-kind totals
// (the distributed analogue of qcloud-sim -events).
func tallyEvents(cl *dispatch.Client, logf func(string, ...any)) {
	tally := map[string]int{}
	var cursor int64
	truncated := false
	for {
		resp, err := cl.Events(cursor)
		if err != nil {
			logf("events: %v", err)
			return
		}
		truncated = truncated || resp.Truncated
		for _, ev := range resp.Events {
			tally[string(ev.Kind)]++
		}
		if resp.Next == cursor {
			break
		}
		cursor = resp.Next
	}
	kinds := make([]string, 0, len(tally))
	for k := range tally {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	note := ""
	if truncated {
		note = " (stream truncated; totals are a lower bound)"
	}
	fmt.Printf("events%s:\n", note)
	for _, k := range kinds {
		fmt.Printf("  %-16s %d\n", k, tally[k])
	}
}

// runLocal is reference mode: the same workload executed in-process.
// The trace plane goes through cloud.Simulate (identical to what the
// dispatcher's embedded session replays); the counts plane through
// wire.RunLocal (identical to what the worker fleet computes).
func runLocal(plans []wire.Spec, seed int64, start, end time.Time, workers int, tracePath, countsPath string, logf func(string, ...any)) {
	if tracePath != "" {
		specs := make([]*cloud.JobSpec, len(plans))
		for i := range plans {
			specs[i] = plans[i].JobSpec()
		}
		tr, err := cloud.Simulate(cloud.Config{Seed: seed, Start: start, End: end, Workers: workers}, specs)
		if err != nil {
			log.Fatalf("local trace: %v", err)
		}
		f, err := os.Create(tracePath)
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteCSV(f, tr.Jobs); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		logf("wrote %s (in-process reference)", tracePath)
	}
	if countsPath != "" {
		rs, err := wire.RunLocal(plans, qsim.Parallelism{Workers: workers})
		if err != nil {
			log.Fatalf("local counts: %v", err)
		}
		f, err := os.Create(countsPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := rs.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		logf("wrote %s (in-process reference)", countsPath)
	}
}
