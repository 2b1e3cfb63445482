package cloud

import (
	"encoding/binary"
	"fmt"

	"qcloud/internal/journal"
)

// Binary codec for the journal's input log. The original jrecSubmit
// format framed every record with a fresh gob stream — each one
// carrying full type metadata, which dominated the journaled session's
// submit-path cost. jrecSubmit2 uses the same compact varint layout as
// the trace job codec; old gob records stay readable, so a journal
// written by a previous version recovers unchanged.

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
	buf = binary.AppendVarint(buf, s.SubmitTime.UnixNano())
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

// decodeSubmitRecord decodes one jrecSubmit2 payload (record type byte
// already stripped). Malformed input is an error, never a panic — the
// second line of defense behind the journal's frame checksums.
func decodeSubmitRecord(b []byte) (journalSubmit, error) {
	d := journal.NewRecordReader(b)
	d.Version(submitWireVersion)
	var js journalSubmit
	js.Machine = d.String()
	js.SubmitSeq = d.Varint()
	js.Spec.SubmitTime = d.Time()
	js.Spec.User = d.String()
	js.Spec.Machine = d.String()
	js.Spec.BatchSize = d.Int()
	js.Spec.Shots = d.Int()
	js.Spec.CircuitName = d.String()
	js.Spec.Width = d.Int()
	js.Spec.TotalDepth = d.Int()
	js.Spec.TotalGateOps = d.Int()
	js.Spec.CXTotal = d.Int()
	js.Spec.MemSlots = d.Int()
	js.Spec.PatienceSec = d.Float64()
	js.Spec.Privileged = d.Bool()
	if err := d.Finish(); err != nil {
		return journalSubmit{}, fmt.Errorf("cloud: submit record: %w", err)
	}
	return js, nil
}
