package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"

	"qcloud/internal/par"
)

// csvHeader is the column layout of the CSV codec, stable across
// versions so external tooling can rely on it.
var csvHeader = []string{
	"id", "user", "machine", "machine_qubits", "public", "circuit",
	"batch_size", "shots", "width", "total_depth", "total_gate_ops",
	"cx_total", "mem_slots", "submit_time", "start_time", "end_time",
	"status", "compile_epoch", "exec_epoch",
}

// csvChunk is the size of the writes WriteCSV makes to w: large enough
// that a trace is a few hundred writes, small enough that the CSV is
// never held in memory twice. Every write but the last is exactly this
// long, as csv.Writer's are exactly 4 KiB, so a bytes.Buffer behind w
// grows to the capacity it reached under csv.Writer.
const csvChunk = 64 << 10

// csvBlockRows is how many rows one worker formats into a block at a
// time.
const csvBlockRows = 1024

// csvHeaderRow is the header line, quoted as csv.Writer quotes it.
var csvHeaderRow = func() []byte {
	var row []byte
	for i, h := range csvHeader {
		if i > 0 {
			row = append(row, ',')
		}
		row = AppendField(row, h)
	}
	return append(row, '\n')
}()

// WriteCSV streams the trace's jobs as CSV with a header row, with the
// bytes encoding/csv's Writer writes for the same fields. Each row is
// appended by hand. par.Workers() blocks of csvBlockRows rows are
// formatted at a time, one a worker, into block buffers reused from
// round to round; the blocks are then written in order through one
// csvChunk buffer, so the write sizes do not depend on the worker count.
func WriteCSV(w io.Writer, jobs []*Job) error {
	cw := chunkWriter{w: w, buf: make([]byte, 0, csvChunk)}
	cw.write(csvHeaderRow)
	workers := par.Workers()
	blocks := make([][]byte, workers)
	for round := jobs; len(round) > 0 && cw.err == nil; {
		n := min(len(round), workers*csvBlockRows)
		par.ForEach((n+csvBlockRows-1)/csvBlockRows, workers, func(b int) {
			buf := blocks[b][:0]
			for _, j := range round[b*csvBlockRows : min(n, (b+1)*csvBlockRows)] {
				buf = appendCSVRow(buf, j)
			}
			blocks[b] = buf
		})
		for b := 0; b*csvBlockRows < n; b++ {
			cw.write(blocks[b])
		}
		round = round[n:]
	}
	return cw.flush()
}

// chunkWriter writes what it is given to w in writes of exactly
// csvChunk bytes, the last excepted. The first write error sticks.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (c *chunkWriter) write(p []byte) {
	for len(p) > 0 && c.err == nil {
		k := copy(c.buf[len(c.buf):cap(c.buf)], p)
		c.buf, p = c.buf[:len(c.buf)+k], p[k:]
		if len(c.buf) == cap(c.buf) {
			c.flush()
		}
	}
}

func (c *chunkWriter) flush() error {
	if c.err == nil && len(c.buf) > 0 {
		var n int
		if n, c.err = c.w.Write(c.buf); c.err == nil && n < len(c.buf) {
			c.err = io.ErrShortWrite
		}
		c.buf = c.buf[:0]
	}
	return c.err
}

// appendCSVRow appends one job's CSV row. Only the string fields can
// need quoting; numbers, booleans and RFC 3339 times never do.
func appendCSVRow(buf []byte, j *Job) []byte {
	buf = strconv.AppendInt(buf, j.ID, 10)
	buf = AppendField(append(buf, ','), j.User)
	buf = AppendField(append(buf, ','), j.Machine)
	buf = strconv.AppendInt(append(buf, ','), int64(j.MachineQubits), 10)
	buf = strconv.AppendBool(append(buf, ','), j.Public)
	buf = AppendField(append(buf, ','), j.CircuitName)
	for _, n := range [...]int{j.BatchSize, j.Shots, j.Width, j.TotalDepth, j.TotalGateOps, j.CXTotal, j.MemSlots} {
		buf = strconv.AppendInt(append(buf, ','), int64(n), 10)
	}
	for _, t := range [...]time.Time{j.SubmitTime, j.StartTime, j.EndTime} {
		buf = t.UTC().AppendFormat(append(buf, ','), time.RFC3339)
	}
	buf = AppendField(append(buf, ','), string(j.Status))
	buf = strconv.AppendInt(append(buf, ','), int64(j.CompileEpoch), 10)
	buf = strconv.AppendInt(append(buf, ','), int64(j.ExecEpoch), 10)
	return append(buf, '\n')
}

// NeedsQuotes reports whether encoding/csv's Writer (Comma ',', UseCRLF
// false) quotes field f: f is `\.`, holds a comma, a quote, CR or LF,
// or starts with a space rune. Both CSV planes, the trace here and the
// counts rows of cloud.AppendCountsRow, quote by this rule.
func NeedsQuotes[T string | []byte](f T) bool {
	if len(f) == 0 {
		return false
	}
	if string(f) == `\.` {
		return true
	}
	for i := 0; i < len(f); i++ {
		switch f[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(string(f[:min(len(f), utf8.UTFMax)]))
	return unicode.IsSpace(r)
}

// AppendField appends f as encoding/csv's Writer writes a field: as it
// is, or quoted with each quote doubled when NeedsQuotes says so.
func AppendField(buf []byte, f string) []byte {
	if !NeedsQuotes(f) {
		return append(buf, f...)
	}
	buf = append(buf, '"')
	for i := 0; i < len(f); i++ {
		if f[i] == '"' {
			buf = append(buf, '"')
		}
		buf = append(buf, f[i])
	}
	return append(buf, '"')
}

// ReadCSV parses a trace written by WriteCSV.
func ReadCSV(r io.Reader) ([]*Job, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if len(header) != len(csvHeader) {
		return nil, fmt.Errorf("trace: header has %d columns, want %d", len(header), len(csvHeader))
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", i+1, header[i], want)
		}
	}
	var jobs []*Job
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		j, err := parseCSVRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

func parseCSVRecord(rec []string) (*Job, error) {
	atoi := func(s string) (int, error) { return strconv.Atoi(s) }
	j := &Job{}
	var err error
	if j.ID, err = strconv.ParseInt(rec[0], 10, 64); err != nil {
		return nil, fmt.Errorf("id: %w", err)
	}
	j.User, j.Machine = rec[1], rec[2]
	if j.MachineQubits, err = atoi(rec[3]); err != nil {
		return nil, fmt.Errorf("machine_qubits: %w", err)
	}
	if j.Public, err = strconv.ParseBool(rec[4]); err != nil {
		return nil, fmt.Errorf("public: %w", err)
	}
	j.CircuitName = rec[5]
	ints := []struct {
		dst *int
		col int
		nm  string
	}{
		{&j.BatchSize, 6, "batch_size"}, {&j.Shots, 7, "shots"},
		{&j.Width, 8, "width"}, {&j.TotalDepth, 9, "total_depth"},
		{&j.TotalGateOps, 10, "total_gate_ops"}, {&j.CXTotal, 11, "cx_total"},
		{&j.MemSlots, 12, "mem_slots"},
	}
	for _, f := range ints {
		if *f.dst, err = atoi(rec[f.col]); err != nil {
			return nil, fmt.Errorf("%s: %w", f.nm, err)
		}
	}
	times := []struct {
		dst *time.Time
		col int
		nm  string
	}{
		{&j.SubmitTime, 13, "submit_time"}, {&j.StartTime, 14, "start_time"}, {&j.EndTime, 15, "end_time"},
	}
	for _, f := range times {
		if *f.dst, err = time.Parse(time.RFC3339, rec[f.col]); err != nil {
			return nil, fmt.Errorf("%s: %w", f.nm, err)
		}
	}
	j.Status = Status(rec[16])
	if j.CompileEpoch, err = atoi(rec[17]); err != nil {
		return nil, fmt.Errorf("compile_epoch: %w", err)
	}
	if j.ExecEpoch, err = atoi(rec[18]); err != nil {
		return nil, fmt.Errorf("exec_epoch: %w", err)
	}
	return j, j.Validate()
}

// WriteJSON encodes the full trace (jobs + machine stats) as JSON.
func WriteJSON(w io.Writer, t *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// ReadJSON decodes a trace written by WriteJSON.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decoding JSON: %w", err)
	}
	for _, j := range t.Jobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
	}
	return &t, nil
}
