package trace

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"qcloud/internal/par"
)

func sampleJob(id int64) *Job {
	t0 := time.Date(2020, 6, 1, 10, 0, 0, 0, time.UTC)
	return &Job{
		ID: id, User: "u1", Machine: "ibmq_athens", MachineQubits: 5, Public: true,
		CircuitName: "qft4", BatchSize: 20, Shots: 4096,
		Width: 4, TotalDepth: 240, TotalGateOps: 800, CXTotal: 120, MemSlots: 4,
		SubmitTime: t0, StartTime: t0.Add(45 * time.Minute), EndTime: t0.Add(47 * time.Minute),
		Status: StatusDone, CompileEpoch: 100, ExecEpoch: 100,
	}
}

func TestJobDerivedQuantities(t *testing.T) {
	j := sampleJob(1)
	if got := j.QueueSeconds(); got != 45*60 {
		t.Fatalf("QueueSeconds = %v", got)
	}
	if got := j.ExecSeconds(); got != 2*60 {
		t.Fatalf("ExecSeconds = %v", got)
	}
	if got := j.Trials(); got != 20*4096 {
		t.Fatalf("Trials = %v", got)
	}
	if got := j.Utilization(); got != 0.8 {
		t.Fatalf("Utilization = %v", got)
	}
	if j.CrossedCalibration() {
		t.Fatal("same epochs should not be a crossover")
	}
	j.ExecEpoch = 101
	if !j.CrossedCalibration() {
		t.Fatal("different epochs must be a crossover")
	}
}

func TestCancelledExecSecondsZero(t *testing.T) {
	j := sampleJob(2)
	j.Status = StatusCancelled
	if j.ExecSeconds() != 0 {
		t.Fatal("cancelled job should report zero exec time")
	}
}

func TestValidate(t *testing.T) {
	good := sampleJob(3)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := map[string]func(*Job){
		"no machine":     func(j *Job) { j.Machine = "" },
		"bad batch":      func(j *Job) { j.BatchSize = 0 },
		"bad shots":      func(j *Job) { j.Shots = 0 },
		"start<submit":   func(j *Job) { j.StartTime = j.SubmitTime.Add(-time.Minute) },
		"end<start":      func(j *Job) { j.EndTime = j.StartTime.Add(-time.Minute) },
		"unknown status": func(j *Job) { j.Status = "WAT" },
	}
	for name, corrupt := range cases {
		j := sampleJob(4)
		corrupt(j)
		if err := j.Validate(); err == nil {
			t.Fatalf("%s: expected validation error", name)
		}
	}
}

func TestCSVRoundtrip(t *testing.T) {
	jobs := []*Job{sampleJob(1), sampleJob(2)}
	jobs[1].Status = StatusError
	jobs[1].Machine = "ibmq_manhattan"
	jobs[1].Public = false
	var buf bytes.Buffer
	if err := WriteCSV(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("roundtrip job count = %d", len(back))
	}
	for i := range jobs {
		if *back[i] != *jobs[i] {
			t.Fatalf("job %d mismatch:\n got %+v\nwant %+v", i, back[i], jobs[i])
		}
	}
}

func TestCSVRejectsCorrupt(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("not,a,trace\n")); err == nil {
		t.Fatal("wrong header should fail")
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Job{sampleJob(1)}); err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(buf.String(), "4096", "notanumber", 1)
	if _, err := ReadCSV(strings.NewReader(corrupted)); err == nil {
		t.Fatal("corrupt field should fail")
	}
	// Same column count, wrong names: the rows would land in the wrong
	// fields, so the header is refused and the error names the column.
	renamed := strings.Replace(buf.String(), "user,machine,", "user,qubits,", 1)
	if _, err := ReadCSV(strings.NewReader(renamed)); err == nil || !strings.Contains(err.Error(), `column 3 is "qubits", want "machine"`) {
		t.Fatalf("renamed header column: got %v", err)
	}
	reordered := strings.Replace(buf.String(), "batch_size,shots,", "shots,batch_size,", 1)
	if _, err := ReadCSV(strings.NewReader(reordered)); err == nil || !strings.Contains(err.Error(), `column 7 is "shots", want "batch_size"`) {
		t.Fatalf("reordered header columns: got %v", err)
	}
}

// encodingCSV is the oracle WriteCSV is held to: the bytes csv.Writer
// writes for the header and one []string of formatted fields per job.
func encodingCSV(t *testing.T, jobs []*Job) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(csvHeader); err != nil {
		t.Fatal(err)
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
			t.Fatal(err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteCSVMatchesEncodingCSV holds a trace of many rows, longer
// than one write to w, to the oracle, and an empty one to its header.
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	var jobs []*Job
	for len(jobs) < 4000 {
		jobs = append(jobs, streamJobs()...)
	}
	for _, js := range [][]*Job{nil, jobs[:1], jobs} {
		var got bytes.Buffer
		if err := WriteCSV(&got, js); err != nil {
			t.Fatal(err)
		}
		if want := encodingCSV(t, js); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%d jobs: WriteCSV wrote %d bytes, encoding/csv %d, and they differ", len(js), got.Len(), len(want))
		}
	}
}

// recordingWriter keeps what it is written and the size of each write.
type recordingWriter struct {
	buf    bytes.Buffer
	writes []int
}

func (r *recordingWriter) Write(p []byte) (int, error) {
	r.writes = append(r.writes, len(p))
	return r.buf.Write(p)
}

// serialCSV is WriteCSV as one goroutine writes it, a row at a time
// through a csvChunk bufio.Writer: the writer whose write sizes, and so
// whose bytes.Buffer capacity, WriteCSV keeps.
func serialCSV(t *testing.T, w io.Writer, jobs []*Job) {
	t.Helper()
	bw := bufio.NewWriterSize(w, csvChunk)
	bw.Write(csvHeaderRow)
	var row []byte
	for _, j := range jobs {
		row = appendCSVRow(row[:0], j)
		bw.Write(row)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteCSVAcrossWorkers formats the rows at 1, 2 and 8 workers: the
// bytes, the write sizes and the capacity of a bytes.Buffer behind the
// writer are the serial writer's, and every write but the last is
// csvChunk long. The traces run from none to several rounds of blocks
// at every worker count; one holds a row longer than csvChunk, which
// is written in csvChunk pieces all the same.
func TestWriteCSVAcrossWorkers(t *testing.T) {
	t.Cleanup(func() { par.SetWorkers(0) })
	var many []*Job
	for len(many) < 4000 {
		many = append(many, streamJobs()...)
	}
	var rounds []*Job
	for len(rounds) < 8*csvBlockRows*2+77 {
		rounds = append(rounds, streamJobs()...)
	}
	long := append([]*Job(nil), rounds[:3*csvBlockRows]...)
	giant := *long[csvBlockRows+5]
	giant.User = strings.Repeat("a,b", csvChunk)
	long[csvBlockRows+5] = &giant
	for _, tc := range []struct {
		name   string
		jobs   []*Job
		serial bool // the serial writer's write sizes hold
	}{
		{"empty", nil, true},
		{"one row", many[:1], true},
		{"many rows", many, true},
		{"rounds", rounds, true},
		{"a row longer than a write", long, false},
	} {
		var want recordingWriter
		serialCSV(t, &want, tc.jobs)
		var first []int
		for _, workers := range []int{1, 2, 8} {
			par.SetWorkers(workers)
			var got recordingWriter
			if err := WriteCSV(&got, tc.jobs); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.buf.Bytes(), want.buf.Bytes()) {
				t.Fatalf("%s at %d workers: WriteCSV wrote %d bytes, the serial writer %d, and they differ", tc.name, workers, got.buf.Len(), want.buf.Len())
			}
			for i, n := range got.writes[:len(got.writes)-1] {
				if n != csvChunk {
					t.Fatalf("%s at %d workers: write %d of %d is %d bytes, want %d", tc.name, workers, i, len(got.writes), n, csvChunk)
				}
			}
			if first == nil {
				first = got.writes
			} else if !slices.Equal(got.writes, first) {
				t.Fatalf("%s at %d workers: write sizes %v, at 1 worker %v", tc.name, workers, got.writes, first)
			}
			if !tc.serial {
				continue
			}
			if !slices.Equal(got.writes, want.writes) {
				t.Fatalf("%s at %d workers: write sizes %v, the serial writer's %v", tc.name, workers, got.writes, want.writes)
			}
			if got.buf.Cap() != want.buf.Cap() {
				t.Fatalf("%s at %d workers: bytes.Buffer capacity %d, behind the serial writer %d", tc.name, workers, got.buf.Cap(), want.buf.Cap())
			}
		}
	}
}

// FuzzWriteCSV holds the trace CSV to encoding/csv: whatever one job's
// strings, integers and times (in any zone), WriteCSV writes the bytes
// a csv.Writer writes for the formatted fields, header included.
func FuzzWriteCSV(f *testing.F) {
	f.Add(int64(1), "u1", "ibmq_athens", 5, true, "qft4", 20, 4096, 4, 240, 800, 120, 4, int64(1590998400), int64(1591001100), int64(1591001220), 0, "DONE", 100, 100)
	f.Add(int64(-1), `a,"b"`, " leading space", -5, false, `\.`, 0, -1, -2, -3, -4, -5, -6, int64(-62135596800), int64(0), int64(253402300799), 3600, "line\r\nbreak", -7, -8)
	f.Add(int64(7), "\u00a0nbsp", `\.`, 1, true, " x,y", 1, 1, 1, 1, 1, 1, 1, int64(1), int64(2), int64(3), -19800, "cr\ronly", 0, 1)
	f.Add(int64(9), "\t", "\"", 1, false, "", 1, 1, 1, 1, 1, 1, 1, int64(1e9), int64(1e9), int64(1e9), 45296, "", 2, 2)
	f.Add(int64(11), "\xff", "\xff", 1, false, "\xff", 1, 1, 1, 1, 1, 1, 1, int64(-1), int64(-1), int64(-1), -43200, "\xff", 3, 4)
	f.Fuzz(func(t *testing.T, id int64, user, machine string, qubits int, public bool, circuit string,
		batch, shots, width, depth, gateOps, cx, memSlots int, submit, start, end int64, zoneSec int, status string, compileEpoch, execEpoch int) {
		zone := time.FixedZone("fuzz", zoneSec%(18*3600))
		j := &Job{
			ID: id, User: user, Machine: machine, MachineQubits: qubits, Public: public, CircuitName: circuit,
			BatchSize: batch, Shots: shots, Width: width, TotalDepth: depth, TotalGateOps: gateOps, CXTotal: cx, MemSlots: memSlots,
			SubmitTime: time.Unix(submit, 0).In(zone), StartTime: time.Unix(start, 0).In(zone), EndTime: time.Unix(end, 0).In(zone),
			Status: Status(status), CompileEpoch: compileEpoch, ExecEpoch: execEpoch,
		}
		var got bytes.Buffer
		if err := WriteCSV(&got, []*Job{j}); err != nil {
			t.Fatal(err)
		}
		if want := encodingCSV(t, []*Job{j}); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("WriteCSV = %q, encoding/csv writes %q", got.Bytes(), want)
		}
	})
}

func TestJSONRoundtrip(t *testing.T) {
	tr := &Trace{
		Jobs: []*Job{sampleJob(1)},
		Machines: []*MachineStats{{
			Name: "ibmq_athens", Qubits: 5, Public: true, BackgroundJobs: 123,
			PendingSamples: []PendingSample{{Machine: "ibmq_athens", Time: time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC), Pending: 42}},
		}},
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Jobs) != 1 || len(back.Machines) != 1 {
		t.Fatal("JSON roundtrip lost records")
	}
	if back.Machines[0].PendingSamples[0].Pending != 42 {
		t.Fatal("pending sample lost")
	}
}

func TestTraceGrouping(t *testing.T) {
	a, b, c := sampleJob(1), sampleJob(2), sampleJob(3)
	b.Machine = "ibmq_rome"
	c.Status = StatusCancelled
	tr := &Trace{Jobs: []*Job{a, b, c}}
	groups := tr.JobsByMachine()
	if len(groups["ibmq_athens"]) != 2 || len(groups["ibmq_rome"]) != 1 {
		t.Fatalf("grouping wrong: %v", groups)
	}
	if got := len(tr.Completed()); got != 2 {
		t.Fatalf("completed = %d, want 2", got)
	}
}
