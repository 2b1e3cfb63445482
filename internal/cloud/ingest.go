package cloud

import (
	"encoding/csv"
	"io"
	"sort"
	"strconv"
	"sync"
)

// JobResult is one execution outcome arriving from a worker (or from
// the in-process reference runner): the merged measurement counts of
// one submission's trajectory batch, keyed by the dispatcher-assigned
// submission sequence.
type JobResult struct {
	// Seq is the submission sequence number — the merge key.
	Seq int64
	// Circuit labels the executed circuit family (e.g. "qft8").
	Circuit string
	// Batch and Shots are the executed dimensions.
	Batch, Shots int
	// Counts are the merged bitstring tallies (nil when Err is set).
	Counts map[string]int
	// Err is the terminal execution error, empty on success.
	Err string
	// Cancelled marks a submission cancelled before completion.
	Cancelled bool
}

// ResultSet is the dispatcher's result merge/ingest hook: an
// idempotent, seq-keyed accumulator whose serialized form depends only
// on the set of (seq, outcome) pairs — not on arrival order, worker
// identity, or how many times a result was reported. Exactly-once
// merging on top of at-least-once delivery: the first outcome for a
// seq wins and duplicates (late reports after a lease expiry, replays
// after a dispatcher restart) are dropped. Because every worker
// computes the same deterministic counts for a given seq, first-write-
// wins never loses information.
type ResultSet struct {
	mu    sync.Mutex
	bySeq map[int64]JobResult
}

// NewResultSet returns an empty ResultSet.
func NewResultSet() *ResultSet {
	return &ResultSet{bySeq: make(map[int64]JobResult)}
}

// Ingest merges one result, reporting whether it was kept (false = a
// result for this seq already landed).
func (rs *ResultSet) Ingest(r JobResult) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if _, dup := rs.bySeq[r.Seq]; dup {
		return false
	}
	rs.bySeq[r.Seq] = r
	return true
}

// Len reports the number of merged results.
func (rs *ResultSet) Len() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.bySeq)
}

// Get returns the result merged for seq, if any.
func (rs *ResultSet) Get(seq int64) (JobResult, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	r, ok := rs.bySeq[seq]
	return r, ok
}

// Seqs returns the merged sequence numbers in ascending order.
func (rs *ResultSet) Seqs() []int64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	ks := make([]int64, 0, len(rs.bySeq))
	for k := range rs.bySeq {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

// FormatCounts canonicalizes a counts map as "bits:n" pairs joined by
// spaces in bitstring order — the CSV cell form. Every serialization
// of the same counts is byte-identical.
func FormatCounts(m map[string]int) string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	size := 0
	for _, k := range ks {
		size += len(k) + len(":12345 ") // a longer count only grows the buffer
	}
	out := make([]byte, 0, size)
	for i, k := range ks {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, k...)
		out = append(out, ':')
		out = strconv.AppendInt(out, int64(m[k]), 10)
	}
	return string(out)
}

// WriteCSV writes the merged results in seq order. The bytes are a
// pure function of the merged outcomes: a dispatcher + N workers run
// and the in-process reference runner produce identical files.
func (rs *ResultSet) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seq", "circuit", "batch", "shots", "status", "error", "counts"}); err != nil {
		return err
	}
	for _, seq := range rs.Seqs() {
		r, _ := rs.Get(seq)
		status := "ok"
		switch {
		case r.Cancelled:
			status = "cancelled"
		case r.Err != "":
			status = "error"
		}
		row := []string{
			strconv.FormatInt(r.Seq, 10),
			r.Circuit,
			strconv.Itoa(r.Batch),
			strconv.Itoa(r.Shots),
			status,
			r.Err,
			FormatCounts(r.Counts),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Backoff exposes the retry policy's deterministic backoff schedule to
// callers outside the machine loop (the dispatcher's lease-expiry
// requeue path): the delay before retry `attempt` (1 = first retry) of
// job `jobID`, jittered by the policy's stateless splitmix stream.
// Defaults are applied, so a zero-valued policy behaves like the
// session's.
func (p *RetryPolicy) Backoff(attempt int, seed, machineSeed, jobID int64) float64 {
	return p.withDefaults().backoffSec(attempt, seed, machineSeed, jobID)
}
