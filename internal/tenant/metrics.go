package tenant

import (
	"fmt"
	"io"
)

// TenantState is one queue's externally visible snapshot.
type TenantState struct {
	Name     string
	Priority int
	// Deserved is the queue's absolute deserved fraction of fleet
	// capacity; Share is its realized fraction of all raw allocation.
	Deserved float64
	Share    float64
	// Decayed and Raw are the ledger entries (QPU-seconds) as of the
	// broker frontier.
	Decayed float64
	Raw     float64

	Pending  int
	InFlight int

	Arrived   int
	Admitted  int
	Done      int
	Errored   int
	Cancelled int
	Preempted int
	Unserved  int

	// WaitMean and WaitMax cover jobs that actually started: release
	// latency from tenant arrival to QPU start, in sim-seconds.
	WaitMean float64
	WaitMax  float64
}

// Metrics summarizes fairness over the whole run.
type Metrics struct {
	// JainIndex is Jain's fairness index over each demanded queue's
	// share/deserved ratio: 1.0 when every queue holds exactly its
	// deserved share, approaching 1/n under total capture.
	JainIndex float64
	// MaxDeviation is the largest |share - deserved| over demanded
	// queues, in absolute fraction-of-fleet terms.
	MaxDeviation float64
	// TotalQPUSeconds is the raw (undecayed) allocation across all
	// queues.
	TotalQPUSeconds float64
	// Preemptions counts jobs the broker displaced.
	Preemptions int
}

// States returns a snapshot per queue in declaration order, as of
// the broker frontier.
func (b *Broker) States() []TenantState {
	rawTotal := b.ledger.RawTotal()
	out := make([]TenantState, 0, len(b.queues))
	for _, q := range b.queues {
		st := TenantState{
			Name:     q.cfg.Name,
			Priority: q.cfg.Priority,
			Deserved: q.deserved,
			Decayed:  b.ledger.DecayedAt(q.idx, b.nowSec),
			Raw:      b.ledger.Raw(q.idx),
			Pending:  len(q.pending),
			InFlight: q.inFlight,
			Arrived:  q.arrived, Admitted: q.admitted,
			Done: q.done, Errored: q.errored, Cancelled: q.cancelled,
			Preempted: q.preempted, Unserved: q.unserved,
			WaitMax: q.waitMax,
		}
		if rawTotal > 0 {
			st.Share = st.Raw / rawTotal
		}
		if q.waitN > 0 {
			st.WaitMean = q.waitSum / float64(q.waitN)
		}
		out = append(out, st)
	}
	return out
}

// Metrics computes run-level fairness figures from the current ledger.
// Queues that never had demand (no arrivals) are excluded: an idle
// queue holding none of its deserved share is not unfairness.
func (b *Broker) Metrics() Metrics {
	m := Metrics{Preemptions: b.preemptions, TotalQPUSeconds: b.ledger.RawTotal()}
	var ratios []float64
	for _, st := range b.States() {
		if st.Arrived == 0 {
			continue
		}
		if st.Deserved > 0 {
			ratios = append(ratios, st.Share/st.Deserved)
		}
		if d := st.Share - st.Deserved; d > m.MaxDeviation {
			m.MaxDeviation = d
		} else if -d > m.MaxDeviation {
			m.MaxDeviation = -d
		}
	}
	m.JainIndex = JainIndex(ratios)
	return m
}

// JainIndex is Jain's fairness index (Σx)²/(n·Σx²) over the given
// values: 1.0 when all equal, 1/n when one value captures everything.
// Empty or all-zero input returns 1 (nothing to be unfair about).
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// DumpStates writes a stable one-line-per-queue text rendering of the
// broker state — used for bit-identity assertions across worker counts
// and for the CLI fairness table.
func (b *Broker) DumpStates(w io.Writer) error {
	for _, st := range b.States() {
		if _, err := fmt.Fprintf(w,
			"%s pri=%d deserved=%.4f share=%.4f raw=%.3f decayed=%.3f pending=%d inflight=%d arrived=%d admitted=%d done=%d err=%d cancelled=%d preempted=%d unserved=%d waitmean=%.3f waitmax=%.3f\n",
			st.Name, st.Priority, st.Deserved, st.Share, st.Raw, st.Decayed,
			st.Pending, st.InFlight, st.Arrived, st.Admitted, st.Done,
			st.Errored, st.Cancelled, st.Preempted, st.Unserved,
			st.WaitMean, st.WaitMax); err != nil {
			return err
		}
	}
	return nil
}
