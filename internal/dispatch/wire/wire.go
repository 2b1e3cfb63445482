// Package wire defines the dispatcher's versioned JSON wire protocol,
// the binary records of its WAL, and the deterministic
// execution-payload builders shared by the dispatcher, the workers,
// and the load client.
//
// The package splits the service decomposition along the determinism
// boundary: everything here — message schemas, the WAL record codec,
// the spec → trajectory-batch expansion, the counts
// canonicalization feeding the merged CSV — must be bit-identical
// across hosts, worker counts, and restarts, so the package joins
// lint.DeterministicPackages (no wall clock, no global rand, no
// order-dependent map iteration). The daemons' operational code
// (listeners, lease timers, heartbeats) lives one level up in
// internal/dispatch and is deliberately outside that scope.
//
// The event taxonomy is cloud.EventKind verbatim: a dispatcher event
// stream is read with the same vocabulary as an in-process
// Session.Observe stream (enqueue, start, done, error, cancel, retry,
// requeue). Likewise a Spec's trace plane is cloud.JobSpec itself: its
// JSON tags and, after the submit instant, its WAL field list
// (cloud.AppendJobSpecFields) are the session's.
package wire

import (
	"fmt"
	"strconv"
	"time"

	"qcloud/internal/cloud"
)

// Version is the wire-protocol version. Every HTTP body carries it;
// both sides reject other versions loudly rather than guessing. (WAL
// records carry WALVersion.)
const Version = 1

// TracePlane is the session's submission record under a name Spec can
// embed: a field named JobSpec would clash with Spec's JobSpec method.
type TracePlane = cloud.JobSpec

// Spec is one submission: the trace-plane JobSpec the dispatcher's
// embedded deterministic session replays, plus the exec plan the
// workers execute as a qsim.BatchRun payload. The exec plan is derived
// from the JobSpec by Plan with capped width/batch/shots (study-scale
// circuits are queue-model entities, not statevector payloads).
type Spec struct {
	// TracePlane is cloud.JobSpec itself, so its fields and JSON tags
	// are Spec's. SubmitTime keeps its instant to the nanosecond through
	// JSON (RFC 3339) and through the WAL (seconds and nanoseconds), so
	// replaying a decoded Spec through cloud.Simulate is bit-identical
	// to submitting the original.
	TracePlane

	// Exec plane — the worker-side trajectory batch.
	ExecKind  string `json:"exec_kind"`
	ExecWidth int    `json:"exec_width"`
	ExecBatch int    `json:"exec_batch"`
	ExecShots int    `json:"exec_shots"`
	ExecSeed  int64  `json:"exec_seed"`
}

// JobSpec returns a fresh copy of the trace plane: the session keys its
// handles by spec pointer, so every submission gets its own.
func (s *Spec) JobSpec() *cloud.JobSpec {
	js := s.TracePlane
	return &js
}

// ExecLabel names the exec-plane circuit family the way workload names
// trace circuits (kind + width).
func (s *Spec) ExecLabel() string {
	// Every counts-CSV row names its circuit, so this skips fmt.
	var buf [32]byte
	return string(strconv.AppendInt(append(buf[:0], s.ExecKind...), int64(s.ExecWidth), 10))
}

// Count is one bitstring tally. Counts cross the wire and the WAL, and
// sit on the dispatcher's tasks, as a []Count sorted by Bits without
// repeats rather than a map[string]int, so every serialization of the
// same result is byte-identical and the counts CSV is written from the
// slice as it stands. It is cloud.Count, the type of the CSV cell.
type Count = cloud.Count

// Event mirrors cloud.Event for the dispatcher's observable stream.
// Seq is the dispatcher-assigned submission sequence (the analogue of
// a session job ID), Attempt the lease attempt it describes.
type Event struct {
	Kind    cloud.EventKind `json:"kind"`
	Seq     int64           `json:"seq"`
	Attempt int             `json:"attempt"`
	Worker  string          `json:"worker,omitempty"`
	Err     string          `json:"err,omitempty"`
	// At is daemon wall time, informational only — nothing
	// deterministic may derive from it.
	At time.Time `json:"at"`
	// NextAttemptAt accompanies requeue events: when the retried lease
	// becomes eligible again.
	NextAttemptAt time.Time `json:"next_attempt_at,omitempty"`
}

// --- HTTP message bodies -------------------------------------------------

// SubmitRequest submits one Spec. Key is the client's idempotency key:
// resubmitting the same key returns the original seq with Dup set, so
// a load client can blindly retry across dispatcher restarts.
type SubmitRequest struct {
	V    int    `json:"v"`
	Key  string `json:"key"`
	Spec Spec   `json:"spec"`
}

type SubmitResponse struct {
	V   int   `json:"v"`
	Seq int64 `json:"seq"`
	Dup bool  `json:"dup,omitempty"`
}

// SealRequest marks the submission stream complete: no further submits
// are accepted and the trace-plane result becomes computable.
type SealRequest struct {
	V int `json:"v"`
}

// RegisterRequest registers or deregisters a worker by name.
type RegisterRequest struct {
	V    int    `json:"v"`
	Name string `json:"name"`
}

// PullRequest asks for up to Max leased units.
type PullRequest struct {
	V      int    `json:"v"`
	Worker string `json:"worker"`
	Max    int    `json:"max"`
}

// Unit is one leased unit of work: run the Spec's exec plan through
// qsim.BatchRun and report the merged counts before the lease expires.
type Unit struct {
	Seq     int64 `json:"seq"`
	Attempt int   `json:"attempt"`
	Spec    Spec  `json:"spec"`
	// LeaseSec is the lease duration in seconds; workers heartbeat a
	// few times per lease interval.
	LeaseSec float64 `json:"lease_sec"`
}

type PullResponse struct {
	V int `json:"v"`
	// Sealed tells an idle worker whether more work can still arrive.
	Sealed bool   `json:"sealed"`
	Units  []Unit `json:"units"`
}

// HeartbeatRequest extends the leases the worker still holds.
type HeartbeatRequest struct {
	V      int     `json:"v"`
	Worker string  `json:"worker"`
	Seqs   []int64 `json:"seqs"`
}

type HeartbeatResponse struct {
	V int `json:"v"`
	// Extended counts the leases that were still held by this worker
	// and got their deadlines pushed out; a shortfall tells the worker
	// some leases already expired.
	Extended int `json:"extended"`
}

// ResultRequest reports one finished unit. Err non-empty means the
// payload itself failed deterministically (build or simulation error).
type ResultRequest struct {
	V       int     `json:"v"`
	Worker  string  `json:"worker"`
	Seq     int64   `json:"seq"`
	Attempt int     `json:"attempt"`
	Counts  []Count `json:"counts,omitempty"`
	//qcloud:keep only encoding/json writes it, decoding a /v1/result body
	Err string `json:"err,omitempty"`
}

type ResultResponse struct {
	V int `json:"v"`
	// Accepted is false when the task already reached a terminal state
	// (duplicate or post-cancel report); the dispatcher kept its first
	// outcome.
	Accepted bool   `json:"accepted"`
	State    string `json:"state"`
}

// UnitResult is one finished unit inside a ResultsRequest: the
// ResultRequest fields that vary per unit.
type UnitResult struct {
	Seq     int64   `json:"seq"`
	Attempt int     `json:"attempt"`
	Counts  []Count `json:"counts,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// ResultsRequest is the worker's whole exchange in one round trip:
// report the batch it just executed and lease up to Pull new units.
// The dispatcher applies the reports, makes them durable, and only then
// leases. Either side may be empty: Results alone is a drain-time
// report, Pull alone is /v1/pull.
type ResultsRequest struct {
	V       int          `json:"v"`
	Worker  string       `json:"worker"`
	Results []UnitResult `json:"results,omitempty"`
	Pull    int          `json:"pull"`
}

// UnitAck answers one UnitResult. State "unknown" (never accepted)
// means the dispatcher has no such seq; the other reports of the batch
// are applied regardless.
type UnitAck struct {
	Accepted bool   `json:"accepted"`
	State    string `json:"state"`
}

// ResultsResponse acks the reports in request order and carries the
// newly leased units (none while the dispatcher drains).
type ResultsResponse struct {
	V       int       `json:"v"`
	Results []UnitAck `json:"results,omitempty"`
	Sealed  bool      `json:"sealed"`
	Units   []Unit    `json:"units,omitempty"`
}

// CancelRequest cancels by idempotency key or by seq (key wins when
// both are set).
type CancelRequest struct {
	V   int    `json:"v"`
	Key string `json:"key,omitempty"`
	Seq int64  `json:"seq,omitempty"`
}

// GenericResponse acknowledges requests with no payload.
type GenericResponse struct {
	V   int    `json:"v"`
	Err string `json:"err,omitempty"`
}

// StatusResponse is the dispatcher's live state summary.
type StatusResponse struct {
	V         int      `json:"v"`
	Sealed    bool     `json:"sealed"`
	Draining  bool     `json:"draining"`
	Jobs      int      `json:"jobs"`
	Queued    int      `json:"queued"`
	Leased    int      `json:"leased"`
	Done      int      `json:"done"`
	Failed    int      `json:"failed"`
	Cancelled int      `json:"cancelled"`
	Workers   []string `json:"workers,omitempty"`
	Recovered bool     `json:"recovered,omitempty"`
}

// Terminal reports how many tasks have reached a terminal state.
func (s *StatusResponse) Terminal() int { return s.Done + s.Failed + s.Cancelled }

// EventsResponse pages the observable event stream. Next is the cursor
// for the following request. The stream is a bounded in-memory ring:
// Truncated reports that events before the returned window were
// dropped (or lost to a restart) — observability is best-effort, the
// WALs are the durable record.
type EventsResponse struct {
	V         int     `json:"v"`
	Next      int64   `json:"next"`
	Truncated bool    `json:"truncated,omitempty"`
	Events    []Event `json:"events"`
}

// CheckVersion validates an HTTP body's version field.
func CheckVersion(v int) error {
	if v != Version {
		return fmt.Errorf("wire: message version %d, want %d", v, Version)
	}
	return nil
}

// CountsToPairs canonicalizes a counts map into the sorted wire form.
func CountsToPairs(m map[string]int) []Count { return cloud.SortedCounts(m) }

// PairsToCounts inverts CountsToPairs.
func PairsToCounts(cs []Count) map[string]int {
	m := make(map[string]int, len(cs))
	for _, c := range cs {
		m[c.Bits] += c.N
	}
	return m
}

// Canonical returns cs in CountsToPairs' form. Pairs already strictly
// ascending by Bits — what every worker sends — come back as the same
// slice after one O(n) check; anything else, such as a hostile
// reporter's unsorted or repeated bits, is CountsToPairs(PairsToCounts(cs)),
// so it lands exactly as a report merged through a map would.
func Canonical(cs []Count) []Count {
	for i := 1; i < len(cs); i++ {
		if cs[i].Bits <= cs[i-1].Bits {
			return CountsToPairs(PairsToCounts(cs))
		}
	}
	return cs
}
