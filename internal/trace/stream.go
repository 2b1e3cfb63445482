package trace

import (
	"encoding/binary"
	"fmt"
	"unsafe"

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
func DecodeJob(b []byte) (*Job, error) { return (*JobDecoder)(nil).Decode(b) }

// ReadJob reads what AppendJob wrote from a record that holds more
// than the one job (a session checkpoint); the caller owns d's error.
func ReadJob(d *journal.RecordReader) *Job { return (*JobDecoder)(nil).read(d) }

// A JobDecoder decodes the records of one stream as DecodeJob does,
// but gives every job it returns the same copy of each string value
// and carves the jobs from chunks of jobChunk. A machine's stream
// repeats one machine name, three statuses and a few users and circuit
// names, so its jobs cost one allocation per chunk where DecodeJob's
// cost five each. The zero value is ready; a nil decoder shares
// nothing and allocates each job on its own.
type JobDecoder struct {
	strs map[string]string
	// spare is the rest of the current chunk. A chunk never grows, so
	// the jobs handed out of it stay put.
	spare []Job
}

// jobChunk is how many jobs one JobDecoder allocation holds: as many
// as fill 64 KiB, the eight pages the runtime rounds a chunk up to, so
// the span holds no tail that no job can use.
const jobChunk = 64 << 10 / int(unsafe.Sizeof(Job{}))

// Decode is DecodeJob, sharing strings with the jobs dec returned
// before.
func (dec *JobDecoder) Decode(b []byte) (*Job, error) {
	d := journal.NewRecordReader(b)
	j := dec.read(d)
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("trace: job record: %w", err)
	}
	return j, nil
}

func (dec *JobDecoder) read(d *journal.RecordReader) *Job {
	d.Version(jobWireVersion)
	j := dec.job()
	j.ID = d.Varint()
	j.User = dec.string(d)
	j.Machine = dec.string(d)
	j.MachineQubits = d.Int()
	j.Public = d.Bool()
	j.CircuitName = dec.string(d)
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
	j.Status = Status(dec.string(d))
	j.CompileEpoch = d.Int()
	j.ExecEpoch = d.Int()
	return j
}

// job returns a zeroed job for read to fill: the next one of the
// current chunk, or a job of its own for a nil decoder.
func (dec *JobDecoder) job() *Job {
	if dec == nil {
		return &Job{}
	}
	if len(dec.spare) == 0 {
		dec.spare = make([]Job, jobChunk)
	}
	j := &dec.spare[0]
	dec.spare = dec.spare[1:]
	return j
}

// string reads a string, returning the copy an earlier job already
// holds when there is one.
func (dec *JobDecoder) string(d *journal.RecordReader) string {
	if dec == nil {
		return d.String()
	}
	b := d.Bytes()
	if s, ok := dec.strs[string(b)]; ok {
		return s
	}
	if dec.strs == nil {
		dec.strs = make(map[string]string)
	}
	s := string(b)
	dec.strs[s] = s
	return s
}

// AppendMachineStats appends the binary encoding of st: the machine
// stream's sealing stats frame, and a field of the session checkpoint.
func AppendMachineStats(buf []byte, st *MachineStats) []byte {
	buf = journal.AppendString(buf, st.Name)
	buf = binary.AppendVarint(buf, int64(st.Qubits))
	buf = journal.AppendBool(buf, st.Public)
	buf = binary.AppendVarint(buf, st.BackgroundJobs)
	buf = binary.AppendUvarint(buf, uint64(len(st.PendingSamples)))
	for i := range st.PendingSamples {
		p := &st.PendingSamples[i]
		buf = journal.AppendString(buf, p.Machine)
		buf = binary.AppendVarint(buf, p.Time.UnixNano())
		buf = binary.AppendVarint(buf, int64(p.Pending))
	}
	buf = journal.AppendFloat64(buf, st.WaitRatioP10)
	buf = journal.AppendFloat64(buf, st.WaitRatioP50)
	return journal.AppendFloat64(buf, st.WaitRatioP90)
}

// ReadMachineStats reads what AppendMachineStats wrote; the caller
// owns d's error. No samples decode as a nil slice, which WriteJSON
// prints as the null a machine that never sampled prints.
func ReadMachineStats(d *journal.RecordReader) *MachineStats {
	st := &MachineStats{}
	st.Name = d.String()
	st.Qubits = d.Int()
	st.Public = d.Bool()
	st.BackgroundJobs = d.Varint()
	if n := d.Count(3); n > 0 { // a sample is three bytes at the least
		st.PendingSamples = make([]PendingSample, n)
		for i := range st.PendingSamples {
			p := &st.PendingSamples[i]
			p.Machine = d.String()
			p.Time = d.Time()
			p.Pending = d.Int()
		}
	}
	st.WaitRatioP10 = d.Float64()
	st.WaitRatioP50 = d.Float64()
	st.WaitRatioP90 = d.Float64()
	return st
}
