// Command qcloud-dispatcher is the queue-owning daemon of the service
// decomposition: it accepts submissions over HTTP, leases trajectory
// batches to pulling qcloud-worker daemons, merges their results, and
// serves the deterministic trace/counts CSVs once the stream is
// sealed and drained.
//
// Durability: every accepted mutation is WAL-backed under -state; a
// SIGKILL'd dispatcher restarted on the same directory recovers by
// replay and the merged outputs are byte-identical to an uninterrupted
// run. The first trace CSV computed on a sealed stream is kept under
// -state too, bound to the seed, window and cancellations it came
// from, so a restart serves it without re-simulating the window; a
// restart whose -seed or -days differs, or a cancel accepted since,
// computes it afresh.
//
// SIGTERM drains gracefully: submissions are rejected, no new leases
// are granted, in-flight leases get -drain-timeout to land, and the
// journal streams are sealed before exit.
//
// -cpuprofile / -memprofile profile the daemon from start-up (WAL
// replay included) to that exit, where the files are written:
//
//	qcloud-dispatcher -state s -cpuprofile cpu.prof   # SIGTERM, then: go tool pprof -top cpu.prof
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/dispatch"
	"qcloud/internal/prof"
)

func main() {
	var (
		listen       = flag.String("listen", "127.0.0.1:8042", "listen address (host:port; port 0 picks a free port)")
		state        = flag.String("state", "", "queue state directory (required; WALs + checkpoint + trace file)")
		seed         = flag.Int64("seed", 1, "deterministic seed (must match the workload's)")
		days         = flag.Float64("days", 0, "trace-plane window length in days (0 = full study window)")
		simWorkers   = flag.Int("sim-workers", 0, "embedded session's per-machine fan-out (0 = all cores)")
		lease        = flag.Duration("lease", 30*time.Second, "worker lease duration")
		retryMax     = flag.Int("retry-attempts", 5, "max lease attempts per unit before terminal failure")
		retryBase    = flag.Duration("retry-base", 500*time.Millisecond, "base backoff before a requeued lease")
		retryCap     = flag.Duration("retry-cap", 15*time.Second, "backoff cap")
		ckptEvery    = flag.Int("ckpt-every", 64, "completion-log records between checkpoints")
		syncEvery    = flag.Int("sync-every", 0, "fsync the WALs every N records (0 = flush only)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight leases on SIGTERM")
		quiet        = flag.Bool("q", false, "suppress progress logging")
		cpuProf      = flag.String("cpuprofile", "", "write a CPU profile of the run to this path at graceful exit (outputs are unaffected)")
		memProf      = flag.String("memprofile", "", "write a heap profile at graceful exit to this path (outputs are unaffected)")
	)
	flag.Parse()
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	if *state == "" {
		fmt.Fprintln(os.Stderr, "qcloud-dispatcher: -state is required")
		os.Exit(2)
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		log.Fatalf("qcloud-dispatcher: %v", err)
	}

	cfg := dispatch.Config{
		Dir:  *state,
		Seed: *seed,
		Retry: &cloud.RetryPolicy{
			MaxAttempts: *retryMax,
			BaseBackoff: *retryBase,
			MaxBackoff:  *retryCap,
		},
		Lease:           *lease,
		CheckpointEvery: *ckptEvery,
		SyncEvery:       *syncEvery,
		SimWorkers:      *simWorkers,
	}
	if *days > 0 {
		cfg.Start = backend.StudyStart
		cfg.End = backend.StudyStart.Add(time.Duration(*days * 24 * float64(time.Hour)))
	}
	d, err := dispatch.New(cfg)
	if err != nil {
		log.Fatalf("qcloud-dispatcher: %v", err)
	}
	if d.Recovered() {
		st := d.Stats()
		logf("recovered queue state: %d jobs (%d done, %d failed, %d cancelled), sealed=%v",
			st.Jobs, st.Done, st.Failed, st.Cancelled, st.Sealed)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("qcloud-dispatcher: %v", err)
	}
	// The harness greps this line for the bound address; keep the
	// format stable.
	fmt.Printf("listening on %s\n", ln.Addr())
	// Bound what a slow or silent client can hold: headers must arrive
	// promptly and idle keep-alive connections are reaped. Request
	// bodies are bounded in size and in time where the handlers read
	// them (a stalled one is answered 408); no whole-request timeout,
	// since a trace CSV legitimately takes long to compute.
	srv := &http.Server{
		Handler:           d.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		log.Fatalf("qcloud-dispatcher: serve: %v", err)
	case sig := <-sigc:
		logf("received %v, draining", sig)
	}

	// Graceful shutdown: stop granting leases, let in-flight workers
	// land their batches, then seal the journals.
	d.BeginDrain()
	deadline := time.Now().Add(*drainTimeout)
	for !d.Drained() && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if !d.Drained() {
		logf("drain timeout: abandoning in-flight leases (they will requeue on restart)")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx)
	if err := d.Close(); err != nil {
		log.Fatalf("qcloud-dispatcher: sealing journals: %v", err)
	}
	if err := stopProf(); err != nil {
		log.Printf("qcloud-dispatcher: %v", err)
	}
	fmt.Println("shutdown complete: leases drained, journals sealed")
}
