package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// csvHeader is the column layout of the CSV codec, stable across
// versions so external tooling can rely on it.
var csvHeader = []string{
	"id", "user", "machine", "machine_qubits", "public", "circuit",
	"batch_size", "shots", "width", "total_depth", "total_gate_ops",
	"cx_total", "mem_slots", "submit_time", "start_time", "end_time",
	"status", "compile_epoch", "exec_epoch",
}

// WriteCSV streams the trace's jobs as CSV with a header row.
func WriteCSV(w io.Writer, jobs []*Job) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, j := range jobs {
		rec := []string{
			strconv.FormatInt(j.ID, 10),
			j.User,
			j.Machine,
			strconv.Itoa(j.MachineQubits),
			strconv.FormatBool(j.Public),
			j.CircuitName,
			strconv.Itoa(j.BatchSize),
			strconv.Itoa(j.Shots),
			strconv.Itoa(j.Width),
			strconv.Itoa(j.TotalDepth),
			strconv.Itoa(j.TotalGateOps),
			strconv.Itoa(j.CXTotal),
			strconv.Itoa(j.MemSlots),
			j.SubmitTime.UTC().Format(time.RFC3339),
			j.StartTime.UTC().Format(time.RFC3339),
			j.EndTime.UTC().Format(time.RFC3339),
			string(j.Status),
			strconv.Itoa(j.CompileEpoch),
			strconv.Itoa(j.ExecEpoch),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
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
