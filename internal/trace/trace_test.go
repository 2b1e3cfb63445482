package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
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
