package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"qcloud/internal/cloud"
	"qcloud/internal/dispatch/wire"
	"qcloud/internal/trace"
)

// eventRingCap bounds the in-memory observable event stream. The ring
// is best-effort observability (and empties on restart); the WALs are
// the durable record.
const eventRingCap = 1 << 16

// maxBodyBytes bounds a request body the dispatcher reads. (The client
// bounds the responses it reads by maxResponseBytes.)
const maxBodyBytes = 64 << 20

// Config parameterizes a Dispatcher.
type Config struct {
	// Dir, Seed, Lease, Retry, CheckpointEvery and SyncEvery pass
	// through to the queue.
	Dir             string
	Seed            int64
	Lease           time.Duration
	Retry           *cloud.RetryPolicy
	CheckpointEvery int
	SyncEvery       int

	// Start/End bound the embedded trace-plane session (defaults: the
	// study window). SimWorkers is its per-machine fan-out — the trace
	// is bit-identical at any value.
	Start, End time.Time
	SimWorkers int
}

// Dispatcher is the queue-owning daemon: it accepts submissions,
// leases units to pulling workers, merges their results, and — once
// the stream is sealed — replays the submissions through an embedded
// deterministic cloud.Session to produce the trace-plane result. That
// replay runs once per state dir, not once per process: its CSV is
// kept in the trace file beside the WALs, bound to the seed, window,
// submission count and cancellations it was computed from, and a
// restart serves the file while that binding still holds.
//
// Determinism contract: both result CSVs are pure functions of (seed,
// sealed submission stream, cancellations). The trace CSV is exactly
// what cloud.Simulate produces in-process for the same specs; the
// counts CSV is exactly what wire.RunLocal produces. Worker count,
// join/leave order, lease churn, duplicate reports, and dispatcher
// SIGKILL + recovery are all invisible in the bytes.
type Dispatcher struct {
	cfg Config
	q   *Queue
	// fleet is the trace-plane session's fleet: a submission naming a
	// machine outside it is refused, since the replay would refuse it.
	// It is built on the first submission, so a restart that takes none
	// does not pay for it.
	fleet func() cloud.FleetIndex

	mu       sync.Mutex
	draining bool
	workers  map[string]time.Time // name → last seen

	evMu sync.Mutex
	// events is a ring: it grows to eventRingCap, then event number n of
	// the stream overwrites slot n % eventRingCap. evNext is the number
	// the next event gets, so the oldest one retained is
	// evNext - len(events).
	events []wire.Event
	evNext int64

	traceMu sync.Mutex
	// trace is the trace plane's answer for one binding — the in-memory
	// form of the trace file, served while the binding is the queue's.
	trace *traceAnswer
}

// traceAnswer is the trace plane's answer for one binding. A replay
// error is an answer too: the replay is deterministic, and would fail
// again on the same input.
type traceAnswer struct {
	bind wire.TraceBinding
	csv  []byte
	err  error
}

// traceFileName is the trace file in the state dir (wire.EncodeTraceFile
// has its layout).
const traceFileName = "trace"

// ErrNotReady is the error, under errors.Is, of a result asked for
// before it is final: a trace before the seal, counts before every task
// is terminal. The client may ask again later; any other result error
// is the dispatcher's own.
var ErrNotReady = errors.New("result not final yet")

// New opens the dispatcher's durable queue (recovering any prior
// state) and returns the daemon.
func New(cfg Config) (*Dispatcher, error) {
	d := &Dispatcher{cfg: cfg, workers: make(map[string]time.Time)}
	d.fleet = sync.OnceValue(func() cloud.FleetIndex { return cloud.IndexFleet(d.sessionConfig()) })
	qcfg := QueueConfig{
		Dir:             cfg.Dir,
		Seed:            cfg.Seed,
		Lease:           cfg.Lease,
		Retry:           cfg.Retry,
		CheckpointEvery: cfg.CheckpointEvery,
		SyncEvery:       cfg.SyncEvery,
		OnEvent:         d.appendEvent,
	}
	q, err := OpenQueue(qcfg)
	if err != nil {
		return nil, err
	}
	d.q = q
	return d, nil
}

// Recovered reports whether New replayed pre-existing queue state.
func (d *Dispatcher) Recovered() bool { return d.q.Recovered() }

// appendEvent feeds the observable ring (the queue's OnEvent hook).
func (d *Dispatcher) appendEvent(ev wire.Event) {
	d.evMu.Lock()
	defer d.evMu.Unlock()
	if len(d.events) < eventRingCap {
		d.events = append(d.events, ev)
	} else {
		d.events[d.evNext%eventRingCap] = ev
	}
	d.evNext++
}

// eventsSince copies out the retained events numbered since and later,
// oldest first. truncated reports that since is older than the ring
// reaches; the window then starts at the oldest event retained.
func (d *Dispatcher) eventsSince(since int64) (events []wire.Event, next int64, truncated bool) {
	d.evMu.Lock()
	defer d.evMu.Unlock()
	oldest := d.evNext - int64(len(d.events))
	if since < oldest {
		since, truncated = oldest, true
	}
	if n := d.evNext - since; n > 0 {
		// Slot since%cap holds event since (before the ring wraps, slot i
		// holds event i); the window runs to the end of the slice and
		// continues from its start.
		from := since % eventRingCap
		first := min(n, int64(len(d.events))-from)
		events = make([]wire.Event, 0, n)
		events = append(append(events, d.events[from:from+first]...), d.events[:n-first]...)
	}
	return events, d.evNext, truncated
}

// BeginDrain puts the dispatcher into graceful-shutdown mode: new
// submissions are rejected and no new leases are granted, but
// heartbeats, results, and reads keep flowing so in-flight workers can
// land their units.
func (d *Dispatcher) BeginDrain() {
	d.mu.Lock()
	d.draining = true
	d.mu.Unlock()
}

// Draining reports drain mode.
func (d *Dispatcher) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// Drained reports whether no leases remain in flight.
func (d *Dispatcher) Drained() bool {
	return d.q.Stats().Leased == 0
}

// Close checkpoints and seals the queue's journal streams.
func (d *Dispatcher) Close() error { return d.q.Close() }

// Queue exposes the underlying queue.
//
//qcloud:keep the external e2e tests act as a worker on a live dispatcher's queue (e2e_test.go)
func (d *Dispatcher) Queue() *Queue { return d.q }

// Stats returns the live status summary.
func (d *Dispatcher) Stats() wire.StatusResponse {
	st := d.q.Stats()
	d.mu.Lock()
	names := make([]string, 0, len(d.workers))
	for n := range d.workers {
		names = append(names, n)
	}
	draining := d.draining
	d.mu.Unlock()
	sort.Strings(names)
	return wire.StatusResponse{
		V:         wire.Version,
		Sealed:    st.Sealed,
		Draining:  draining,
		Jobs:      st.Jobs,
		Queued:    st.Queued,
		Leased:    st.Leased,
		Done:      st.Done,
		Failed:    st.Failed,
		Cancelled: st.Cancelled,
		Workers:   names,
		Recovered: d.q.Recovered(),
	}
}

// sessionConfig configures the trace plane's embedded session.
func (d *Dispatcher) sessionConfig() cloud.Config {
	return cloud.Config{Seed: d.cfg.Seed, Start: d.cfg.Start, End: d.cfg.End, Workers: d.cfg.SimWorkers}
}

// traceBinding is what the trace CSV is a function of right now.
func (d *Dispatcher) traceBinding() (wire.TraceBinding, error) {
	sealed, jobs, cancelled := d.q.cancelledSeqs()
	if !sealed {
		return wire.TraceBinding{}, fmt.Errorf("dispatch: trace requires a sealed submission stream: %w", ErrNotReady)
	}
	return wire.TraceBinding{Seed: d.cfg.Seed, Start: d.cfg.Start, End: d.cfg.End, Jobs: jobs, Cancelled: cancelled}, nil
}

// TraceCSV returns the trace-plane CSV of the sealed submission stream
// and its cancellations: the answer in memory if its binding is still
// the queue's, else the trace file's if that is, else a replay's, which
// is then written to the trace file for the next process. A cancel
// accepted after the seal moves the binding, so it is never answered
// from before.
func (d *Dispatcher) TraceCSV() ([]byte, error) {
	b, err := d.traceBinding()
	if err != nil {
		return nil, err
	}
	d.traceMu.Lock()
	defer d.traceMu.Unlock()
	if a := d.trace; a != nil && a.bind.Equal(&b) {
		return a.csv, a.err
	}
	path := filepath.Join(d.cfg.Dir, traceFileName)
	a := &traceAnswer{bind: b}
	// A file that is missing or unreadable is as good as a stale one:
	// the answer is to recompute.
	if file, err := os.ReadFile(path); err == nil {
		a.csv = wire.DecodeTraceFile(file, &b)
	}
	if a.csv == nil {
		var file []byte
		if file, a.csv, a.err = d.runTrace(&b); a.err == nil {
			// Best-effort, like the watermark: a file that is not there
			// only costs the next process a replay.
			_ = replaceFile(path, file)
		}
	}
	d.trace = a
	return a.csv, a.err
}

// runTrace is the trace-plane replay: submit every spec in seq order
// to a fresh session (cancelling the cancelled ones), run the window,
// and serialize — byte-identical to cloud.Simulate of the same specs.
// It returns the trace file bound to b and the CSV inside it.
func (d *Dispatcher) runTrace(b *wire.TraceBinding) (file, csv []byte, err error) {
	specs := d.q.TraceInputs()
	sess, err := cloud.Open(d.sessionConfig())
	if err != nil {
		return nil, nil, err
	}
	defer sess.Close()
	cancelled := b.Cancelled
	for i := range specs {
		h, err := sess.SubmitRetried(specs[i].JobSpec(), 0)
		if err != nil {
			return nil, nil, err
		}
		if len(cancelled) > 0 && cancelled[0] == int64(i) {
			cancelled = cancelled[1:]
			if err := sess.Cancel(h); err != nil {
				return nil, nil, err
			}
		}
	}
	tr, err := sess.Run()
	if err != nil {
		return nil, nil, err
	}
	return wire.EncodeTraceFile(b, func(w io.Writer) error { return trace.WriteCSV(w, tr.Jobs) })
}

// CountsCSV merges the counts plane. Unless partial is set it requires
// every task terminal, so the bytes are the run's final answer.
func (d *Dispatcher) CountsCSV(partial bool) ([]byte, error) {
	st := d.q.Stats()
	if !partial {
		if !st.Sealed {
			return nil, fmt.Errorf("dispatch: counts require a sealed submission stream: %w", ErrNotReady)
		}
		if st.Terminal() != st.Jobs {
			return nil, fmt.Errorf("dispatch: counts incomplete: %d/%d terminal: %w", st.Terminal(), st.Jobs, ErrNotReady)
		}
	}
	return d.q.CountsCSV(), nil
}

// --- HTTP plumbing -------------------------------------------------------

// Handler returns the dispatcher's HTTP API.
func (d *Dispatcher) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/submit", d.handleSubmit)
	mux.HandleFunc("POST /v1/seal", d.handleSeal)
	mux.HandleFunc("POST /v1/register", d.handleRegister)
	mux.HandleFunc("POST /v1/deregister", d.handleDeregister)
	mux.HandleFunc("POST /v1/pull", d.handlePull)
	mux.HandleFunc("POST /v1/heartbeat", d.handleHeartbeat)
	mux.HandleFunc("POST /v1/result", d.handleResult)
	mux.HandleFunc("POST /v1/results", d.handleResults)
	mux.HandleFunc("POST /v1/cancel", d.handleCancel)
	mux.HandleFunc("GET /v1/status", d.handleStatus)
	mux.HandleFunc("GET /v1/events", d.handleEvents)
	mux.HandleFunc("GET /v1/result/trace", d.handleTraceCSV)
	mux.HandleFunc("GET /v1/result/counts", d.handleCountsCSV)
	return mux
}

// bodyTimeout bounds how long decode waits for a request body, so a
// client that stalls mid-body is answered 408 instead of holding the
// handler. It is a variable only so that tests can lower it.
var bodyTimeout = 30 * time.Second

// marshal is json.Marshal, through the appender of wire's canonical
// codec (wire/json.go) when v has one that takes it.
func marshal(v any) ([]byte, error) {
	if a, ok := v.(interface{ AppendJSON([]byte) ([]byte, error) }); ok {
		if b, err := a.AppendJSON(make([]byte, 0, 512)); err == nil {
			return b, nil
		}
	}
	return json.Marshal(v)
}

// unmarshal is json.Unmarshal, through the codec's decoder when v has
// one that reads data.
func unmarshal(data []byte, v any) error {
	if c, ok := v.(interface{ DecodeCanonical([]byte) error }); ok && c.DecodeCanonical(data) == nil {
		return nil
	}
	return json.Unmarshal(data, v)
}

// decode reads a request body of at most maxBodyBytes into dst and
// checks the protocol version it carries in *v. A refused body is
// answered here — 413 past the limit, 408 past bodyTimeout, 400 for
// anything json.Unmarshal refuses (trailing data included) or a wrong
// version — and decode reports false.
func decode(w http.ResponseWriter, r *http.Request, dst any, v *int) bool {
	rc := http.NewResponseController(w)
	// Only a writer with no connection, such as a ResponseRecorder,
	// refuses a deadline.
	timed := rc.SetReadDeadline(time.Now().Add(bodyTimeout)) == nil
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		// Cleared only after a whole body: past a timeout, net/http's
		// discard of the unread rest would otherwise wait on the client.
		if timed {
			_ = rc.SetReadDeadline(time.Time{})
		}
		err = unmarshal(body, dst)
	}
	if err != nil {
		code, msg := http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		} else if errors.Is(err, os.ErrDeadlineExceeded) {
			// A fixed text: the error names the socket's addresses.
			code, msg = http.StatusRequestTimeout, "bad request body: not received in time"
		}
		httpError(w, code, msg)
		return false
	}
	if err := wire.CheckVersion(*v); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return false
	}
	return true
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(wire.GenericResponse{V: wire.Version, Err: msg})
}

// writeJSON answers 200 with v and a newline: json.Encoder's bytes.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if b, err := marshal(v); err == nil {
		_, _ = w.Write(append(b, '\n'))
	}
}

func (d *Dispatcher) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req wire.SubmitRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	if err := d.fleet().Check(&req.Spec.TracePlane); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if d.Draining() {
		httpError(w, http.StatusServiceUnavailable, "dispatcher is draining")
		return
	}
	seq, dup, err := d.q.Submit(req.Key, req.Spec)
	if errors.Is(err, ErrSealed) {
		httpError(w, http.StatusConflict, err.Error())
		return
	}
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, &wire.SubmitResponse{V: wire.Version, Seq: seq, Dup: dup})
}

func (d *Dispatcher) handleSeal(w http.ResponseWriter, r *http.Request) {
	var req wire.SealRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	if err := d.q.Seal(); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, wire.GenericResponse{V: wire.Version})
}

func (d *Dispatcher) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req wire.RegisterRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	if req.Name == "" {
		httpError(w, http.StatusBadRequest, "worker name required")
		return
	}
	d.mu.Lock()
	d.workers[req.Name] = time.Now()
	d.mu.Unlock()
	writeJSON(w, wire.GenericResponse{V: wire.Version})
}

func (d *Dispatcher) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req wire.RegisterRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	d.mu.Lock()
	delete(d.workers, req.Name)
	d.mu.Unlock()
	writeJSON(w, wire.GenericResponse{V: wire.Version})
}

func (d *Dispatcher) handlePull(w http.ResponseWriter, r *http.Request) {
	var req wire.PullRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "worker name required")
		return
	}
	resp := wire.PullResponse{V: wire.Version, Sealed: d.q.Sealed()}
	if !d.Draining() {
		units, err := d.q.Pull(req.Worker, req.Max)
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		resp.Units = units
		d.touch(req.Worker)
	}
	writeJSON(w, resp)
}

// touch records that the worker was just seen asking for work.
func (d *Dispatcher) touch(worker string) {
	d.mu.Lock()
	d.workers[worker] = time.Now()
	d.mu.Unlock()
}

// handleResults is the worker's whole exchange: reports in, leases out.
// While draining the reports still land but nothing is leased.
func (d *Dispatcher) handleResults(w http.ResponseWriter, r *http.Request) {
	var req wire.ResultsRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "worker name required")
		return
	}
	reports := make([]Report, len(req.Results))
	for i, u := range req.Results {
		reports[i] = Report{Seq: u.Seq, Attempt: u.Attempt, Counts: u.Counts, Err: u.Err}
	}
	pull := req.Pull
	if d.Draining() {
		pull = 0
	}
	ex, err := d.q.Exchange(req.Worker, reports, pull)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if pull > 0 {
		d.touch(req.Worker)
	}
	resp := wire.ResultsResponse{V: wire.Version, Sealed: ex.Sealed, Units: ex.Units}
	if len(ex.Outcomes) > 0 {
		resp.Results = make([]wire.UnitAck, len(ex.Outcomes))
		for i, o := range ex.Outcomes {
			resp.Results[i] = wire.UnitAck{Accepted: o.Accepted, State: o.State.String()}
		}
	}
	writeJSON(w, &resp)
}

func (d *Dispatcher) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req wire.HeartbeatRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	n := d.q.Heartbeat(req.Worker, req.Seqs)
	writeJSON(w, wire.HeartbeatResponse{V: wire.Version, Extended: n})
}

func (d *Dispatcher) handleResult(w http.ResponseWriter, r *http.Request) {
	var req wire.ResultRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	accepted, state, err := d.q.report(req.Worker, Report{Seq: req.Seq, Attempt: req.Attempt, Counts: req.Counts, Err: req.Err})
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, wire.ResultResponse{V: wire.Version, Accepted: accepted, State: state.String()})
}

func (d *Dispatcher) handleCancel(w http.ResponseWriter, r *http.Request) {
	var req wire.CancelRequest
	if !decode(w, r, &req, &req.V) {
		return
	}
	accepted, state, err := d.q.Cancel(req.Key, req.Seq)
	if err != nil {
		// A failed WAL write or a closed queue is not the client's error.
		status := http.StatusInternalServerError
		if errors.Is(err, ErrUnknownTask) {
			status = http.StatusNotFound
		}
		httpError(w, status, err.Error())
		return
	}
	writeJSON(w, wire.ResultResponse{V: wire.Version, Accepted: accepted, State: state.String()})
}

func (d *Dispatcher) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, d.Stats())
}

func (d *Dispatcher) handleEvents(w http.ResponseWriter, r *http.Request) {
	var since int64
	if s := r.URL.Query().Get("since"); s != "" {
		var err error
		if since, err = strconv.ParseInt(s, 10, 64); err != nil || since < 0 {
			httpError(w, http.StatusBadRequest, "bad since cursor: want a non-negative integer")
			return
		}
	}
	resp := wire.EventsResponse{V: wire.Version}
	resp.Events, resp.Next, resp.Truncated = d.eventsSince(since)
	writeJSON(w, resp)
}

func (d *Dispatcher) handleTraceCSV(w http.ResponseWriter, r *http.Request) {
	csv, err := d.TraceCSV()
	writeCSV(w, csv, err)
}

func (d *Dispatcher) handleCountsCSV(w http.ResponseWriter, r *http.Request) {
	csv, err := d.CountsCSV(r.URL.Query().Get("partial") == "1")
	writeCSV(w, csv, err)
}

// writeCSV answers a result route: the CSV, 409 for a result that is
// not final yet, 500 for any other failure.
func writeCSV(w http.ResponseWriter, csv []byte, err error) {
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNotReady) {
			status = http.StatusConflict
		}
		httpError(w, status, err.Error())
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	_, _ = w.Write(csv)
}
