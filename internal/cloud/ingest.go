package cloud

import (
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"qcloud/internal/trace"
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

// Count is one bitstring tally. A unit's counts travel as a []Count
// sorted by Bits without repeats — over the dispatcher's wire and WAL
// (wire.Count is this type) and into the CSV cell — so every
// serialization of the same counts is byte-identical and a cell is
// written from the slice as it stands.
type Count struct {
	Bits string `json:"bits"`
	N    int    `json:"n"`
}

// SortedCounts returns a counts map as a []Count sorted by Bits, the
// cell order.
func SortedCounts(m map[string]int) []Count {
	out := make([]Count, 0, len(m))
	// Map keys are unique, so sorting by Bits is a total order.
	//qcloud:orderinvariant
	for bits, n := range m {
		out = append(out, Count{Bits: bits, N: n})
	}
	slices.SortFunc(out, func(a, b Count) int { return strings.Compare(a.Bits, b.Bits) })
	return out
}

// appendCounts appends the cell form of counts sorted by Bits: "bits:n"
// pairs joined by spaces.
func appendCounts(buf []byte, counts []Count) []byte {
	for i, c := range counts {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, c.Bits...)
		buf = append(buf, ':')
		buf = strconv.AppendInt(buf, int64(c.N), 10)
	}
	return buf
}

// CountsHeader is the counts-plane CSV's header line.
const CountsHeader = "seq,circuit,batch,shots,status,error,counts\n"

// AppendCountsRow appends one unit's counts-plane CSV row to buf, with
// the bytes encoding/csv's Writer would write for it. ResultSet.WriteCSV
// and the dispatcher's task table both write through it, so the status
// names and the cell form exist once; fields are quoted by
// trace.AppendField, the rule the trace CSV uses too. A cancelled unit's
// status is "cancelled" whatever else it carries; otherwise a non-empty
// errMsg makes it "error". counts must be sorted by Bits without
// repeats.
func AppendCountsRow(buf []byte, seq int64, circuit string, batch, shots int, cancelled bool, errMsg string, counts []Count) []byte {
	status := "ok"
	switch {
	case cancelled:
		status = "cancelled"
	case errMsg != "":
		status = "error"
	}
	buf = strconv.AppendInt(buf, seq, 10)
	buf = trace.AppendField(append(buf, ','), circuit)
	buf = strconv.AppendInt(append(buf, ','), int64(batch), 10)
	buf = strconv.AppendInt(append(buf, ','), int64(shots), 10)
	buf = append(append(buf, ','), status...)
	buf = trace.AppendField(append(buf, ','), errMsg)
	buf = append(buf, ',')
	// The cell is built in place; one whose bits need quoting is
	// rewritten.
	at := len(buf)
	buf = appendCounts(buf, counts)
	if trace.NeedsQuotes(buf[at:]) {
		buf = trace.AppendField(buf[:at], string(buf[at:]))
	}
	return append(buf, '\n')
}

// WriteCSV writes the merged results in seq order. The bytes are a
// pure function of the merged outcomes: a dispatcher + N workers run
// and the in-process reference runner produce identical files.
func (rs *ResultSet) WriteCSV(w io.Writer) error {
	buf := []byte(CountsHeader)
	for _, seq := range rs.Seqs() {
		r, _ := rs.Get(seq)
		buf = AppendCountsRow(buf, r.Seq, r.Circuit, r.Batch, r.Shots, r.Cancelled, r.Err, SortedCounts(r.Counts))
	}
	_, err := w.Write(buf)
	return err
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
