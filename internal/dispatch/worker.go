package dispatch

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"qcloud/internal/dispatch/wire"
	"qcloud/internal/qsim"
)

// WorkerConfig parameterizes a pulling worker.
type WorkerConfig struct {
	// Server is the dispatcher's base URL (e.g. http://127.0.0.1:8042).
	Server string
	// Name identifies the worker to the dispatcher.
	Name string
	// MaxUnits bounds the units leased per pull (default 4). The whole
	// pull executes as one qsim.BatchRun over a shared trajectory
	// pool.
	MaxUnits int
	// SimWorkers is the BatchRun parallelism (0 = all cores).
	SimWorkers int
	// Poll is the idle wait between empty pulls (default 200ms).
	Poll time.Duration
	// Logf, if set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.MaxUnits <= 0 {
		c.MaxUnits = 4
	}
	if c.Poll <= 0 {
		c.Poll = 200 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// reportTries bounds how many polls a worker keeps re-sending results
// an unreachable dispatcher has not acked before it leaves them to lease
// expiry.
const reportTries = 50

// Worker is the pulling daemon: register, then one exchange per batch —
// report the units just executed and lease the next ones — with
// heartbeats running from the lease until the report is acked.
// Graceful-shutdown contract: when the run context is cancelled the
// worker finishes the batch it is executing, reports it, deregisters,
// and returns — so a SIGTERM'd worker never wastes a lease. (A
// SIGKILL'd worker simply stops heartbeating; the dispatcher's lease
// expiry requeues its units.)
type Worker struct {
	cfg   WorkerConfig
	cl    *Client // own timeout per call, not the run context: a drain must still report
	units atomic.Int64
}

// NewWorker validates the config and returns a Worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Server == "" || cfg.Name == "" {
		return nil, fmt.Errorf("dispatch: worker needs Server and Name")
	}
	cfg = cfg.withDefaults()
	return &Worker{cfg: cfg, cl: &Client{Server: cfg.Server}}, nil
}

// Units reports how many units this worker has completed.
func (w *Worker) Units() int64 { return w.units.Load() }

// Run drives the exchange loop until ctx is cancelled (graceful exit).
// Transient dispatcher unavailability — connection refused during a
// restart, timeouts — is retried: indefinitely while idle, since
// workers are designed to idle through dispatcher crashes and
// reconnect, and reportTries polls while results are held, so a drain
// or restart cannot lose a computed result.
func (w *Worker) Run(ctx context.Context) error {
	reg := wire.RegisterRequest{V: wire.Version, Name: w.cfg.Name}
	for {
		err := w.cl.do(http.MethodPost, "/v1/register", reg, &wire.GenericResponse{})
		if err == nil {
			break
		}
		w.cfg.Logf("register: %v (retrying)", err)
		if !w.sleep(ctx) {
			return nil
		}
	}
	w.cfg.Logf("registered with %s", w.cfg.Server)
	defer func() {
		if err := w.cl.do(http.MethodPost, "/v1/deregister", reg, &wire.GenericResponse{}); err != nil {
			w.cfg.Logf("deregister: %v", err)
		} else {
			w.cfg.Logf("deregistered")
		}
	}()

	// held is the batch executed and not yet acked; stopHB ends its
	// heartbeats once it is.
	var held []wire.UnitResult
	stopHB := func() {}
	for tries := 0; ; {
		pull := w.cfg.MaxUnits
		if ctx.Err() != nil {
			if len(held) == 0 {
				return nil
			}
			pull = 0 // shutting down: land the batch, lease nothing
		}
		resp, err := w.cl.Exchange(w.cfg.Name, held, pull)
		if err != nil && len(held) == 0 {
			w.cfg.Logf("pull: %v (retrying)", err)
			if !w.sleep(ctx) {
				return nil
			}
			continue
		}
		if err != nil {
			if tries++; tries < reportTries {
				w.cfg.Logf("reporting %d units: %v (retrying)", len(held), err)
				time.Sleep(w.cfg.Poll) // not ctx: a cancelled worker still lands its batch
				continue
			}
			w.cfg.Logf("giving up on reporting %d units; lease expiry will requeue them", len(held))
		} else {
			w.units.Add(int64(len(held)))
			for i, ack := range resp.Results {
				if !ack.Accepted && i < len(held) {
					w.cfg.Logf("unit %d already %s (duplicate report dropped)", held[i].Seq, ack.State)
				}
			}
		}
		stopHB()
		stopHB, held, tries = func() {}, nil, 0
		if len(resp.Units) == 0 {
			if !w.sleep(ctx) {
				return nil
			}
			continue
		}
		stopHB = w.startHeartbeats(resp.Units)
		held = w.execute(resp.Units)
	}
}

// sleep waits one poll interval, reporting false when ctx ended.
func (w *Worker) sleep(ctx context.Context) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(w.cfg.Poll):
		return true
	}
}

// execute runs one leased batch: one BatchRun across all units' jobs,
// folded back into one result per unit.
func (w *Worker) execute(units []wire.Unit) []wire.UnitResult {
	var jobs []qsim.BatchJob
	spans := make([][2]int, len(units))
	out := make([]wire.UnitResult, len(units))
	for i := range units {
		out[i] = wire.UnitResult{Seq: units[i].Seq, Attempt: units[i].Attempt}
		js, err := wire.BuildBatch(&units[i].Spec)
		if err != nil {
			out[i].Err = err.Error()
			continue
		}
		spans[i] = [2]int{len(jobs), len(jobs) + len(js)}
		jobs = append(jobs, js...)
	}
	res := qsim.BatchRun(jobs, qsim.Parallelism{Workers: w.cfg.SimWorkers})

	for i := range units {
		if out[i].Err != "" {
			continue
		}
		m, err := wire.MergeBatch(res[spans[i][0]:spans[i][1]])
		if err != nil {
			out[i].Err = err.Error()
		} else {
			out[i].Counts = wire.CountsToPairs(m)
		}
	}
	return out
}

// startHeartbeats extends the batch's leases a few times per lease
// interval until stopped.
func (w *Worker) startHeartbeats(units []wire.Unit) (stop func()) {
	leaseSec := units[0].LeaseSec
	for _, u := range units {
		if u.LeaseSec < leaseSec {
			leaseSec = u.LeaseSec
		}
	}
	every := time.Duration(leaseSec / 3 * float64(time.Second))
	if every < 50*time.Millisecond {
		every = 50 * time.Millisecond
	}
	seqs := make([]int64, len(units))
	for i, u := range units {
		seqs[i] = u.Seq
	}
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				var resp wire.HeartbeatResponse
				if err := w.cl.do(http.MethodPost, "/v1/heartbeat", wire.HeartbeatRequest{V: wire.Version, Worker: w.cfg.Name, Seqs: seqs}, &resp); err != nil {
					w.cfg.Logf("heartbeat: %v", err)
				}
			}
		}
	}()
	return func() { close(done) }
}
