package trace

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"qcloud/internal/journal"
)

// streamJobs builds a deterministic job set covering the field space:
// every status, empty and long strings, zero and large counters.
func streamJobs() []*Job {
	base := time.Date(2019, 3, 14, 9, 26, 53, 589793238, time.UTC)
	r := rand.New(rand.NewSource(11))
	statuses := []Status{StatusDone, StatusError, StatusCancelled}
	jobs := make([]*Job, 64)
	for i := range jobs {
		submit := base.Add(time.Duration(i) * 97 * time.Minute)
		start := submit.Add(time.Duration(r.Intn(7200)) * time.Second)
		jobs[i] = &Job{
			ID:            int64(i),
			User:          "",
			Machine:       "ibmq_athens",
			MachineQubits: 5 + i%60,
			Public:        i%2 == 0,
			CircuitName:   "qft",
			BatchSize:     1 + i%900,
			Shots:         1 + r.Intn(8192),
			Width:         1 + i%27,
			TotalDepth:    r.Intn(1 << 20),
			TotalGateOps:  r.Intn(1 << 24),
			CXTotal:       r.Intn(1 << 16),
			MemSlots:      i % 32,
			SubmitTime:    submit,
			StartTime:     start,
			EndTime:       start.Add(time.Duration(r.Intn(3600)) * time.Second),
			Status:        statuses[i%3],
			CompileEpoch:  i,
			ExecEpoch:     i + i%2,
		}
		if i%5 == 0 {
			jobs[i].User = "user-with-a-longer-name-0123456789"
			jobs[i].CircuitName = ""
		}
	}
	return jobs
}

func TestJobStreamRoundTrip(t *testing.T) {
	var buf []byte
	jobs := streamJobs()
	var frames [][]byte
	for _, j := range jobs {
		buf = buf[:0]
		buf = AppendJob(buf, j)
		frames = append(frames, bytes.Clone(buf))
	}
	for i, f := range frames {
		got, err := DecodeJob(f)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, jobs[i]) {
			t.Fatalf("job %d round-trip mismatch:\n got %+v\nwant %+v", i, got, jobs[i])
		}
		// The JSON view — what traces are compared by — must be
		// byte-identical too (UTC locations, nanosecond precision).
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(jobs[i])
		if !bytes.Equal(gj, wj) {
			t.Fatalf("job %d JSON mismatch:\n got %s\nwant %s", i, gj, wj)
		}
	}
}

// TestJobDecoderChunks decodes a stream longer than two chunks with one
// decoder, a bad record among them: every job it returned is still the
// job its record holds once the stream is read, and none is another's.
func TestJobDecoderChunks(t *testing.T) {
	jobs := streamJobs()
	var dec JobDecoder
	var got, want []*Job
	for i := 0; len(got) < 2*jobChunk+3; i++ {
		frame := AppendJob(nil, jobs[i%len(jobs)])
		if i == jobChunk-1 {
			if _, err := dec.Decode(frame[:len(frame)-1]); err == nil {
				t.Fatal("a truncated record decoded without error")
			}
		}
		j, err := dec.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		got, want = append(got, j), append(want, jobs[i%len(jobs)])
	}
	seen := make(map[*Job]bool, len(got))
	for i, j := range got {
		if seen[j] {
			t.Fatalf("job %d shares its address with an earlier job", i)
		}
		seen[j] = true
		if !reflect.DeepEqual(j, want[i]) {
			t.Fatalf("job %d changed after later decodes:\n got %+v\nwant %+v", i, j, want[i])
		}
	}
}

// TestJobStreamTruncationSafe decodes every strict prefix of an
// encoded record and a version-mangled copy: all must error, none may
// panic.
func TestJobStreamTruncationSafe(t *testing.T) {
	j := streamJobs()[7]
	full := AppendJob(nil, j)
	for n := 0; n < len(full); n++ {
		if _, err := DecodeJob(full[:n]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(full))
		}
	}
	if _, err := DecodeJob(append(bytes.Clone(full), 0x7f)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
	bad := bytes.Clone(full)
	bad[0] = 99
	if _, err := DecodeJob(bad); err == nil {
		t.Fatal("unknown wire version decoded without error")
	}
}

// FuzzDecodeJob feeds DecodeJob arbitrary bytes, seeded with the
// round-trip fixtures, every truncation of one record, a
// version-mangled copy and a trailing-byte copy. It must never panic,
// and whatever it accepts must survive decode → encode → decode.
func FuzzDecodeJob(f *testing.F) {
	jobs := streamJobs()
	for _, j := range jobs {
		f.Add(AppendJob(nil, j))
	}
	full := AppendJob(nil, jobs[7])
	for n := 0; n < len(full); n++ {
		f.Add(full[:n])
	}
	bad := bytes.Clone(full)
	bad[0] = 99
	f.Add(bad)
	f.Add(append(bytes.Clone(full), 0x7f))
	f.Fuzz(func(t *testing.T, b []byte) {
		// A decoder that shares strings must decode as DecodeJob does,
		// on the first record and on one whose strings it has seen.
		var dec JobDecoder
		j, err := DecodeJob(b)
		for range 2 {
			shared, sharedErr := dec.Decode(b)
			if (err == nil) != (sharedErr == nil) || !reflect.DeepEqual(shared, j) {
				t.Fatalf("JobDecoder.Decode = %+v, %v; DecodeJob = %+v, %v", shared, sharedErr, j, err)
			}
		}
		if err != nil {
			return
		}
		again, err := DecodeJob(AppendJob(nil, j))
		if err != nil {
			t.Fatalf("re-encoded job does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, j) {
			t.Fatalf("decode → encode → decode changed the job:\n got %+v\nwant %+v", again, j)
		}
	})
}

// TestMachineStatsRoundTrip pins the stats codec the machine stream's
// seal and the session checkpoint share: every field survives, a
// machine that never sampled reads back with the nil slice it had (its
// JSON is null, not []), and every strict prefix is an error.
func TestMachineStatsRoundTrip(t *testing.T) {
	at := time.Date(2019, 3, 14, 9, 26, 53, 0, time.UTC)
	for name, st := range map[string]*MachineStats{
		"sampled": {
			Name: "ibmq_athens", Qubits: 5, Public: true, BackgroundJobs: 1 << 33,
			PendingSamples: []PendingSample{{"ibmq_athens", at, 0}, {"ibmq_athens", at.Add(6 * time.Hour), 4217}},
			WaitRatioP10:   0.25, WaitRatioP50: 1, WaitRatioP90: 17.5,
		},
		"never sampled": {Name: "ibmq_rome", Qubits: 5},
	} {
		full := AppendMachineStats(nil, st)
		d := journal.NewRecordReader(full)
		got := ReadMachineStats(d)
		if err := d.Finish(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		gj, _ := json.Marshal(got)
		wj, _ := json.Marshal(st)
		if !reflect.DeepEqual(got, st) || !bytes.Equal(gj, wj) {
			t.Fatalf("%s: round trip mismatch:\n got %s\nwant %s", name, gj, wj)
		}
		for n := 0; n < len(full); n++ {
			d := journal.NewRecordReader(full[:n])
			if ReadMachineStats(d); d.Finish() == nil {
				t.Fatalf("%s: prefix of %d/%d bytes decoded without error", name, n, len(full))
			}
		}
	}
}
