package wire

import (
	"encoding/binary"
	"fmt"

	"qcloud/internal/journal"
)

// Binary codec for the dispatcher's two WAL streams, on the journal's
// record primitive like the trace job record and the session's submit
// record. A record is a layout-version byte, a type tag, and the
// type's fixed field list; DESIGN.md "Durability" has the table. The
// WAL is the one place a restart reads every record ever acked, so it
// pays for a codec of its own; the HTTP bodies stay JSON.

// WALVersion stamps every WAL record and the watermark file. A reader
// refuses any other value, which is also what refuses a state dir from
// the JSON era: those records begin with '{'.
const WALVersion byte = 1

// WALType tags a WAL record. The submit log carries submit and seal;
// the completion log carries expire, result and cancel.
type WALType byte

const (
	WALSubmit WALType = 1 + iota
	WALSeal
	WALExpire
	WALResult
	WALCancel
)

func (t WALType) String() string {
	switch t {
	case WALSubmit:
		return "submit"
	case WALSeal:
		return "seal"
	case WALExpire:
		return "expire"
	case WALResult:
		return "result"
	case WALCancel:
		return "cancel"
	}
	return fmt.Sprintf("WALType(%d)", byte(t))
}

// WALRecord is one journaled queue mutation. Type says which fields
// the record carries; the rest stay zero.
type WALRecord struct {
	Type WALType
	Seq  int64 // all but seal
	// Submit: the idempotency key and the accepted spec.
	Key  string
	Spec Spec
	// Expire: the attempt that was lost. Result: the reporting attempt.
	Attempt int
	// Result: the terminal outcome. Counts is sorted by Bits without
	// repeats (CountsToPairs' form); Err non-empty means the unit failed.
	Worker string
	Err    string
	Counts []Count
}

// AppendWALRecord appends r's encoding to buf and returns the extended
// slice, so a caller can encode a whole log through one buffer.
func AppendWALRecord(buf []byte, r *WALRecord) []byte {
	buf = append(buf, WALVersion, byte(r.Type))
	if r.Type == WALSeal {
		return buf
	}
	buf = binary.AppendVarint(buf, r.Seq)
	switch r.Type {
	case WALSubmit:
		s := &r.Spec
		buf = journal.AppendString(buf, r.Key)
		buf = journal.AppendInstant(buf, s.SubmitTime)
		buf = journal.AppendString(buf, s.User)
		buf = journal.AppendString(buf, s.Machine)
		buf = binary.AppendVarint(buf, int64(s.BatchSize))
		buf = binary.AppendVarint(buf, int64(s.Shots))
		buf = journal.AppendString(buf, s.CircuitName)
		buf = binary.AppendVarint(buf, int64(s.Width))
		buf = binary.AppendVarint(buf, int64(s.TotalDepth))
		buf = binary.AppendVarint(buf, int64(s.TotalGateOps))
		buf = binary.AppendVarint(buf, int64(s.CXTotal))
		buf = binary.AppendVarint(buf, int64(s.MemSlots))
		buf = journal.AppendFloat64(buf, s.PatienceSec)
		buf = journal.AppendBool(buf, s.Privileged)
		buf = journal.AppendString(buf, s.ExecKind)
		buf = binary.AppendVarint(buf, int64(s.ExecWidth))
		buf = binary.AppendVarint(buf, int64(s.ExecBatch))
		buf = binary.AppendVarint(buf, int64(s.ExecShots))
		buf = binary.AppendVarint(buf, s.ExecSeed)
	case WALExpire:
		buf = binary.AppendVarint(buf, int64(r.Attempt))
	case WALResult:
		buf = binary.AppendVarint(buf, int64(r.Attempt))
		buf = journal.AppendString(buf, r.Worker)
		buf = journal.AppendString(buf, r.Err)
		buf = binary.AppendUvarint(buf, uint64(len(r.Counts)))
		for _, c := range r.Counts {
			buf = journal.AppendString(buf, c.Bits)
			buf = binary.AppendVarint(buf, int64(c.N))
		}
	}
	return buf
}

// DecodeWALRecord decodes one record AppendWALRecord produced into r,
// overwriting it. It reuses r.Counts' array, so a caller replaying a
// log through one WALRecord must be done with the counts of one record
// before it decodes the next. Malformed input is an error, never a
// panic, and anything it accepts re-encodes to the same bytes.
func DecodeWALRecord(b []byte, r *WALRecord) error {
	d := journal.NewRecordReader(b)
	d.Version(WALVersion)
	*r = WALRecord{Type: WALType(d.Byte()), Counts: r.Counts[:0]}
	switch r.Type {
	case WALSubmit:
		s := &r.Spec
		r.Seq = d.Varint()
		r.Key = d.String()
		s.SubmitTime = d.Instant()
		s.User = d.String()
		s.Machine = d.String()
		s.BatchSize = d.Int()
		s.Shots = d.Int()
		s.CircuitName = d.String()
		s.Width = d.Int()
		s.TotalDepth = d.Int()
		s.TotalGateOps = d.Int()
		s.CXTotal = d.Int()
		s.MemSlots = d.Int()
		s.PatienceSec = d.Float64()
		s.Privileged = d.Bool()
		s.ExecKind = d.String()
		s.ExecWidth = d.Int()
		s.ExecBatch = d.Int()
		s.ExecShots = d.Int()
		s.ExecSeed = d.Varint()
	case WALSeal:
	case WALExpire:
		r.Seq = d.Varint()
		r.Attempt = d.Int()
	case WALResult:
		r.Seq = d.Varint()
		r.Attempt = d.Int()
		r.Worker = d.String()
		r.Err = d.String()
		// A pair is at least a length byte and a count byte.
		for n := d.Count(2); n > 0 && d.Err() == nil; n-- {
			c := Count{Bits: d.String(), N: d.Int()}
			if k := len(r.Counts); k > 0 && c.Bits <= r.Counts[k-1].Bits {
				d.Reject("counts out of order at %q", c.Bits)
			}
			r.Counts = append(r.Counts, c)
		}
	case WALCancel:
		r.Seq = d.Varint()
	default:
		d.Reject("unknown type tag %d", byte(r.Type))
	}
	if err := d.Finish(); err != nil {
		return fmt.Errorf("wire: WAL record: %w", err)
	}
	return nil
}
