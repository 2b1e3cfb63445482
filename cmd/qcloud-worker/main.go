// Command qcloud-worker is the pulling execution daemon: it registers
// with a qcloud-dispatcher, leases trajectory batches (qsim.BatchRun
// is the unit of work), heartbeats while executing, and streams merged
// counts back.
//
// SIGTERM is graceful: the worker finishes the batch it is executing,
// reports it, deregisters, and exits 0. SIGKILL is safe: the
// dispatcher's lease expiry requeues anything the worker held.
//
// -cpuprofile / -memprofile profile the daemon that burns an execute
// workload's CPU; the files are written on the graceful exit:
//
//	qcloud-worker -cpuprofile cpu.prof   # SIGTERM, then: go tool pprof -top cpu.prof
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qcloud/internal/dispatch"
	"qcloud/internal/prof"
)

func main() {
	var (
		server     = flag.String("server", "http://127.0.0.1:8042", "dispatcher base URL")
		name       = flag.String("name", "", "worker name (default worker-<pid>)")
		maxUnits   = flag.Int("units", 4, "max units leased per pull (one BatchRun spans the pull)")
		simWorkers = flag.Int("workers", 0, "BatchRun parallelism (0 = all cores)")
		poll       = flag.Duration("poll", 200*time.Millisecond, "idle wait between empty pulls")
		quiet      = flag.Bool("q", false, "suppress progress logging")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this path at graceful exit (results are unaffected)")
		memProf    = flag.String("memprofile", "", "write a heap profile at graceful exit to this path (results are unaffected)")
	)
	flag.Parse()
	if *name == "" {
		*name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	w, err := dispatch.NewWorker(dispatch.WorkerConfig{
		Server:     *server,
		Name:       *name,
		MaxUnits:   *maxUnits,
		SimWorkers: *simWorkers,
		Poll:       *poll,
		Logf: func(format string, args ...any) {
			logf("[%s] "+format, append([]any{*name}, args...)...)
		},
	})
	if err != nil {
		log.Fatalf("qcloud-worker: %v", err)
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatalf("qcloud-worker: %v", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	runErr := w.Run(ctx)
	if err := stopProf(); err != nil {
		log.Printf("qcloud-worker: %v", err)
	}
	if runErr != nil {
		log.Fatalf("qcloud-worker: %v", runErr)
	}
	fmt.Printf("worker %s exiting: %d units completed\n", *name, w.Units())
}
