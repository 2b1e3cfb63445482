package trace

import (
	"encoding/binary"
	"fmt"

	"qcloud/internal/journal"
)

// Streaming job codec: a compact binary encoding of single Job
// records for the session journal's append-only frames. Unlike the
// CSV/JSON codecs this one is record-at-a-time (no header, no
// enclosing document), so a journaled session can write each job as
// it finishes and hold none of them in memory.
//
// Times are encoded as UTC Unix nanoseconds; every trace instant lies
// inside the study window, far from UnixNano's ±292-year range limit.

// jobWireVersion stamps each encoded record so the layout can evolve
// without guessing.
const jobWireVersion byte = 1

// AppendJob appends the binary encoding of j to buf and returns the
// extended slice (append-style, so callers can reuse one buffer for a
// whole stream).
func AppendJob(buf []byte, j *Job) []byte {
	buf = append(buf, jobWireVersion)
	buf = binary.AppendVarint(buf, j.ID)
	buf = journal.AppendString(buf, j.User)
	buf = journal.AppendString(buf, j.Machine)
	buf = binary.AppendVarint(buf, int64(j.MachineQubits))
	buf = journal.AppendBool(buf, j.Public)
	buf = journal.AppendString(buf, j.CircuitName)
	buf = binary.AppendVarint(buf, int64(j.BatchSize))
	buf = binary.AppendVarint(buf, int64(j.Shots))
	buf = binary.AppendVarint(buf, int64(j.Width))
	buf = binary.AppendVarint(buf, int64(j.TotalDepth))
	buf = binary.AppendVarint(buf, int64(j.TotalGateOps))
	buf = binary.AppendVarint(buf, int64(j.CXTotal))
	buf = binary.AppendVarint(buf, int64(j.MemSlots))
	buf = binary.AppendVarint(buf, j.SubmitTime.UnixNano())
	buf = binary.AppendVarint(buf, j.StartTime.UnixNano())
	buf = binary.AppendVarint(buf, j.EndTime.UnixNano())
	buf = journal.AppendString(buf, string(j.Status))
	buf = binary.AppendVarint(buf, int64(j.CompileEpoch))
	buf = binary.AppendVarint(buf, int64(j.ExecEpoch))
	return buf
}

// DecodeJob decodes one record produced by AppendJob. It never
// panics: malformed input (truncation, bad lengths) is an error, a
// second line of defense behind the journal's frame checksums.
func DecodeJob(b []byte) (*Job, error) {
	d := journal.NewRecordReader(b)
	d.Version(jobWireVersion)
	j := &Job{}
	j.ID = d.Varint()
	j.User = d.String()
	j.Machine = d.String()
	j.MachineQubits = d.Int()
	j.Public = d.Bool()
	j.CircuitName = d.String()
	j.BatchSize = d.Int()
	j.Shots = d.Int()
	j.Width = d.Int()
	j.TotalDepth = d.Int()
	j.TotalGateOps = d.Int()
	j.CXTotal = d.Int()
	j.MemSlots = d.Int()
	j.SubmitTime = d.Time()
	j.StartTime = d.Time()
	j.EndTime = d.Time()
	j.Status = Status(d.String())
	j.CompileEpoch = d.Int()
	j.ExecEpoch = d.Int()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("trace: job record: %w", err)
	}
	return j, nil
}
