package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"slices"
	"time"

	"qcloud/internal/journal"
)

// The dispatcher's trace file persists the trace plane beside the
// WALs: the CSV a replay of the sealed stream produced, bound to what
// that replay was a function of. It is TraceFileMagic and one journal
// frame, whose payload is one record: TraceFileVersion, the binding's
// fields, then the CSV as a nested byte string. DESIGN.md "Durability"
// has the layout.
const (
	TraceFileMagic = "QTR1"
	// TraceFileVersion is the layout and trace-plane version of the
	// file. Bump it whenever what the trace plane computes changes — a
	// golden update, a trace.WriteCSV change — so that no file written
	// before the change is served after it. internal/dispatch's
	// TestTraceVersionPinsTheBytes holds the hash of a fixed stream's
	// trace beside this value.
	TraceFileVersion byte = 1
)

// TraceBinding is everything a trace CSV is a function of. The
// session's worker count is not in it: the trace is bit-identical at
// any value.
type TraceBinding struct {
	Seed int64
	// Start and End bound the session's window as configured; the zero
	// instant stands for the study-window default.
	Start, End time.Time
	// Jobs counts the sealed stream's submissions.
	Jobs int64
	// Cancelled lists the cancelled seqs, ascending.
	Cancelled []int64
}

// Equal reports whether b and o bind the same trace.
func (b *TraceBinding) Equal(o *TraceBinding) bool {
	return b.Seed == o.Seed && b.Start.Equal(o.Start) && b.End.Equal(o.End) &&
		b.Jobs == o.Jobs && slices.Equal(b.Cancelled, o.Cancelled)
}

func appendTraceBinding(buf []byte, b *TraceBinding) []byte {
	buf = append(buf, TraceFileVersion)
	buf = binary.AppendVarint(buf, b.Seed)
	buf = journal.AppendInstant(buf, b.Start)
	buf = journal.AppendInstant(buf, b.End)
	buf = binary.AppendVarint(buf, b.Jobs)
	buf = binary.AppendUvarint(buf, uint64(len(b.Cancelled)))
	for _, seq := range b.Cancelled {
		buf = binary.AppendVarint(buf, seq)
	}
	return buf
}

// readTraceBinding reads what appendTraceBinding wrote. It checks no
// more than the encodings: a binding read is only ever compared whole
// to the one the reader wants, which a list out of order cannot equal.
func readTraceBinding(d *journal.RecordReader) TraceBinding {
	d.Version(TraceFileVersion)
	b := TraceBinding{Seed: d.Varint(), Start: d.Instant(), End: d.Instant(), Jobs: d.Varint()}
	if n := d.Count(1); n > 0 {
		b.Cancelled = make([]int64, n)
		for i := range b.Cancelled {
			b.Cancelled[i] = d.Varint()
		}
	}
	return b
}

// EncodeTraceFile lays the trace file out around the CSV that writeCSV
// renders, and returns it with the CSV, which aliases the file. The
// CSV is rendered once, behind room for the binding and its length, so
// the record needs no copy of it; framing the record is the one copy,
// into a buffer of exactly the file's size.
func EncodeTraceFile(b *TraceBinding, writeCSV func(io.Writer) error) (file, csv []byte, err error) {
	head := appendTraceBinding(nil, b)
	room := len(head) + binary.MaxVarintLen64
	buf := bytes.NewBuffer(make([]byte, room))
	if err := writeCSV(buf); err != nil {
		return nil, nil, err
	}
	n := buf.Len() - room
	head = binary.AppendUvarint(head, uint64(n))
	payload := buf.Bytes()[room-len(head):]
	copy(payload, head)
	file = make([]byte, 0, len(TraceFileMagic)+journal.FrameHeaderLen+len(payload))
	file = journal.AppendFrame(append(file, TraceFileMagic...), payload)
	return file, file[len(file)-n:], nil
}

// DecodeTraceFile returns the CSV of file, aliasing it, when file is a
// whole trace file bound to want, and nil for anything else: a file
// torn, corrupt, of another version, or bound to another trace.
func DecodeTraceFile(file []byte, want *TraceBinding) []byte {
	framed, ok := bytes.CutPrefix(file, []byte(TraceFileMagic))
	payload, err := journal.Frame(framed)
	if !ok || err != nil {
		return nil
	}
	d := journal.NewRecordReader(payload)
	got := readTraceBinding(d)
	csv := d.Bytes()
	if d.Finish() != nil || !got.Equal(want) {
		return nil
	}
	return csv
}
