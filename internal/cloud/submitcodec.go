package cloud

import (
	"encoding/binary"
	"fmt"

	"qcloud/internal/journal"
)

// Binary codec for the journal's input log, in the same compact varint
// layout as the trace job codec. The spec's field list is shared with
// the session checkpoint, which holds every spec a machine has accepted.

// submitWireVersion stamps each jrecSubmit2 payload so the layout can
// evolve without guessing.
const submitWireVersion byte = 1

// appendSubmitRecord appends the jrecSubmit2 encoding of one accepted
// submission (record type byte included) to buf and returns the
// extended slice.
func appendSubmitRecord(buf []byte, machine string, submitSeq int64, s *JobSpec) []byte {
	buf = append(buf, jrecSubmit2, submitWireVersion)
	buf = journal.AppendString(buf, machine)
	buf = binary.AppendVarint(buf, submitSeq)
	return appendJobSpec(buf, s)
}

// decodeSubmitRecord decodes what appendSubmitRecord wrote. Malformed
// input, a record of any other type included, is an error, never a
// panic — the second line of defense behind the journal's frame
// checksums.
func decodeSubmitRecord(b []byte) (journalSubmit, error) {
	d := journal.NewRecordReader(b)
	if t := d.Byte(); d.Err() == nil && t != jrecSubmit2 {
		d.Reject("unknown type %d", t)
	}
	d.Version(submitWireVersion)
	var js journalSubmit
	js.Machine = d.String()
	js.SubmitSeq = d.Varint()
	readJobSpec(d, &js.Spec)
	if err := d.Finish(); err != nil {
		return journalSubmit{}, fmt.Errorf("cloud: submit record: %w", err)
	}
	return js, nil
}

func appendJobSpec(buf []byte, s *JobSpec) []byte {
	return AppendJobSpecFields(binary.AppendVarint(buf, s.SubmitTime.UnixNano()), s)
}

// readJobSpec reads what appendJobSpec wrote, 20 bytes at the least,
// into s; the caller owns d's error.
func readJobSpec(d *journal.RecordReader, s *JobSpec) {
	s.SubmitTime = d.Time()
	ReadJobSpecFields(d, s)
}

// AppendJobSpecFields appends every field of s after SubmitTime, in
// declaration order, and returns the extended slice. It is the one
// encoding of a spec's fields: the input log and the checkpoint put a
// UnixNano varint before it, the dispatcher's WAL an instant.
func AppendJobSpecFields(buf []byte, s *JobSpec) []byte {
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
	return journal.AppendBool(buf, s.Privileged)
}

// ReadJobSpecFields reads what AppendJobSpecFields wrote into s,
// leaving s.SubmitTime alone; the caller owns d's error.
func ReadJobSpecFields(d *journal.RecordReader, s *JobSpec) {
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
}
