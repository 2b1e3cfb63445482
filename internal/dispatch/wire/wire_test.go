package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"qcloud/internal/cloud"
	"qcloud/internal/qsim"
)

func testSpec(kind string, width int) Spec {
	js := &cloud.JobSpec{
		SubmitTime: time.Date(2019, 3, 4, 5, 6, 7, 891011, time.UTC),
		User:       "user-07", Machine: "ibmq_16_melbourne",
		BatchSize: 3, Shots: 1024, CircuitName: kind + "12", Width: 12,
		TotalDepth: 40, TotalGateOps: 90, CXTotal: 20, MemSlots: 12,
		PatienceSec: 3600, Privileged: true,
	}
	return Plan(js, ExecCaps{MaxWidth: width, MaxBatch: 2, MaxShots: 32}, 5, 3)
}

// TestMessagesRoundTrip sends every request and response body through
// JSON and back: nothing may be lost or renamed on the way, and the
// same value must always serialize to the same bytes.
func TestMessagesRoundTrip(t *testing.T) {
	spec := testSpec("qft", 4)
	counts := []Count{{Bits: "00", N: 3}, {Bits: "11", N: 29}}
	at := time.Date(2024, 1, 2, 3, 4, 5, 6, time.UTC)
	msgs := []any{
		&SubmitRequest{V: Version, Key: "load/3", Spec: spec},
		&SubmitResponse{V: Version, Seq: 3, Dup: true},
		&SealRequest{V: Version},
		&RegisterRequest{V: Version, Name: "w1"},
		&PullRequest{V: Version, Worker: "w1", Max: 4},
		&PullResponse{V: Version, Sealed: true, Units: []Unit{{Seq: 3, Attempt: 1, Spec: spec, LeaseSec: 30}}},
		&HeartbeatRequest{V: Version, Worker: "w1", Seqs: []int64{3, 4}},
		&HeartbeatResponse{V: Version, Extended: 2},
		&ResultRequest{V: Version, Worker: "w1", Seq: 3, Attempt: 1, Counts: counts},
		&ResultRequest{V: Version, Worker: "w1", Seq: 4, Err: "wire: unknown exec circuit kind"},
		&ResultResponse{V: Version, Accepted: true, State: "done"},
		&ResultsRequest{V: Version, Worker: "w1", Pull: 4, Results: []UnitResult{
			{Seq: 3, Attempt: 1, Counts: counts}, {Seq: 4, Err: "build failed"}}},
		&ResultsRequest{V: Version, Worker: "w1", Pull: 4},
		&ResultsResponse{V: Version, Sealed: true,
			Results: []UnitAck{{Accepted: true, State: "done"}, {State: "unknown"}},
			Units:   []Unit{{Seq: 9, Spec: spec, LeaseSec: 30}}},
		&CancelRequest{V: Version, Key: "load/3"},
		&CancelRequest{V: Version, Seq: 3},
		&GenericResponse{V: Version, Err: "dispatcher is draining"},
		&StatusResponse{V: Version, Sealed: true, Draining: true, Jobs: 9, Queued: 1, Leased: 2, Done: 3, Failed: 1, Cancelled: 2, Workers: []string{"w1", "w2"}, Recovered: true},
		&EventsResponse{V: Version, Next: 7, Truncated: true, Events: []Event{
			{Kind: cloud.EventRetry, Seq: 3, Attempt: 1, Worker: "w1", At: at, NextAttemptAt: at.Add(time.Second)},
			{Kind: cloud.EventError, Seq: 4, Attempt: 2, Err: "lease expired", At: at}}},
	}
	for _, msg := range msgs {
		raw, err := json.Marshal(msg)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		back := reflect.New(reflect.TypeOf(msg).Elem()).Interface()
		if err := json.Unmarshal(raw, back); err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if !reflect.DeepEqual(msg, back) {
			t.Errorf("%T changed across JSON:\n sent %+v\n got  %+v", msg, msg, back)
		}
		again, err := json.Marshal(back)
		if err != nil || string(again) != string(raw) {
			t.Errorf("%T serializes to different bytes the second time:\n %s\n %s", msg, raw, again)
		}
	}
	if ts := spec.JobSpec().SubmitTime; !ts.Equal(spec.SubmitTime) || ts.Nanosecond() != 891011 {
		t.Errorf("submit time %v lost precision", ts)
	}
}

func TestCheckVersion(t *testing.T) {
	if err := CheckVersion(Version); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, Version + 1, -1} {
		if err := CheckVersion(v); err == nil {
			t.Errorf("version %d accepted", v)
		}
	}
}

// TestCountsCanonicalForm: however a counts map was built, its wire
// form is the same sorted list, and the inverse folds repeated
// bitstrings together.
func TestCountsCanonicalForm(t *testing.T) {
	want := []Count{{Bits: "000", N: 4}, {Bits: "011", N: 1}, {Bits: "101", N: 7}, {Bits: "110", N: 2}, {Bits: "111", N: 9}}
	for rot := 0; rot < len(want); rot++ {
		m := make(map[string]int)
		for i := range want {
			c := want[(i+rot)%len(want)]
			m[c.Bits] = c.N
		}
		for try := 0; try < 20; try++ { // map iteration order varies per range
			if got := CountsToPairs(m); !reflect.DeepEqual(got, want) {
				t.Fatalf("CountsToPairs = %v, want %v", got, want)
			}
		}
		if back := PairsToCounts(CountsToPairs(m)); !reflect.DeepEqual(back, m) {
			t.Fatalf("PairsToCounts(CountsToPairs(m)) = %v, want %v", back, m)
		}
	}
	if got := CountsToPairs(nil); len(got) != 0 {
		t.Errorf("CountsToPairs(nil) = %v", got)
	}
	unsorted := []Count{{Bits: "11", N: 2}, {Bits: "00", N: 1}, {Bits: "11", N: 3}}
	if got := PairsToCounts(unsorted); !reflect.DeepEqual(got, map[string]int{"00": 1, "11": 5}) {
		t.Errorf("PairsToCounts(%v) = %v", unsorted, got)
	}
}

// TestExecLabel: the label is the fmt form it replaces, for every exec
// kind and for widths at the edges of int.
func TestExecLabel(t *testing.T) {
	for _, kind := range []string{"ghz", "bv", "qft", "qaoa", "vqe", "random", ""} {
		for _, w := range []int{0, 2, 18, -1, math.MinInt} {
			s := Spec{ExecKind: kind, ExecWidth: w}
			if got, want := s.ExecLabel(), fmt.Sprintf("%s%d", kind, w); got != want {
				t.Errorf("ExecLabel(%q, %d) = %q, want %q", kind, w, got, want)
			}
		}
	}
}

// countsFromBytes reads pairs two bytes at a time: the low two bits of
// the first byte give a length of 0-3 and the next bits the
// bitstring; the second byte, signed, is the count. Short bitstrings
// from a small alphabet make repeats and disorder common.
func countsFromBytes(b []byte) []Count {
	var cs []Count
	for ; len(b) >= 2; b = b[2:] {
		bits := make([]byte, b[0]&3)
		for i := range bits {
			bits[i] = '0' + b[0]>>(2+i)&1
		}
		cs = append(cs, Count{Bits: string(bits), N: int(int8(b[1]))})
	}
	return cs
}

// FuzzCanonicalCounts: Canonical is CountsToPairs(PairsToCounts(cs)) for
// any pairs, and hands pairs already in that form back as the same
// slice.
func FuzzCanonicalCounts(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x01, 3, 0x05, 5, 0x07, 24})   // "0", "1", "100": ascending
	f.Add([]byte{0x07, 2, 0x01, 1, 0x07, 3})    // unsorted, a repeat
	f.Add([]byte{0x00, 0x80, 0x02, 0, 0x02, 0}) // ascending but for a repeat; a negative, a zero
	f.Fuzz(func(t *testing.T, b []byte) {
		cs := countsFromBytes(b)
		in := slices.Clone(cs)
		want := CountsToPairs(PairsToCounts(cs))
		got := Canonical(cs)
		if !slices.Equal(got, want) {
			t.Fatalf("Canonical(%v) = %v, want %v", in, got, want)
		}
		if !slices.Equal(cs, in) {
			t.Fatalf("Canonical modified its input %v to %v", in, cs)
		}
		if again := Canonical(want); len(want) > 0 && &again[0] != &want[0] {
			t.Fatalf("canonical %v came back as a copy", want)
		}
		if slices.Equal(cs, want) && len(cs) > 0 && &got[0] != &cs[0] {
			t.Fatalf("canonical input %v came back as a copy", cs)
		}
	})
}

// TestMergeBatch: a unit's counts are the per-bitstring sum over its
// circuits in any order, and the first failing circuit fails the unit.
func TestMergeBatch(t *testing.T) {
	a := qsim.BatchResult{Counts: qsim.Counts{"00": 3, "01": 1}}
	b := qsim.BatchResult{Counts: qsim.Counts{"00": 2, "11": 5}}
	want := map[string]int{"00": 5, "01": 1, "11": 5}
	for _, order := range [][]qsim.BatchResult{{a, b}, {b, a}} {
		got, err := MergeBatch(order)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("MergeBatch = %v, %v; want %v", got, err, want)
		}
	}
	if got, err := MergeBatch(nil); err != nil || len(got) != 0 {
		t.Errorf("MergeBatch(nil) = %v, %v", got, err)
	}
	first, second := errors.New("first"), errors.New("second")
	got, err := MergeBatch([]qsim.BatchResult{a, {Err: first}, b, {Err: second}})
	if got != nil || err != first {
		t.Errorf("MergeBatch with failed circuits = %v, %v; want the first error and no counts", got, err)
	}
}

// TestBuildBatchAgreesWithRunLocal runs one small spec per circuit
// family both ways a unit can run — alone, as a worker runs it, and
// inside RunLocal's one BatchRun over everything — and requires the
// same counts; an unknown family fails in both.
func TestBuildBatchAgreesWithRunLocal(t *testing.T) {
	kinds := []string{"ghz", "bv", "qft", "qaoa", "vqe", "random", "nosuch"}
	specs := make([]Spec, len(kinds))
	for i, k := range kinds {
		specs[i] = testSpec(k, 3+i%3)
		if specs[i].ExecKind != k || specs[i].ExecWidth != 3+i%3 || specs[i].ExecBatch != 2 || specs[i].ExecShots != 32 {
			t.Fatalf("Plan(%s) = %+v", k, specs[i])
		}
	}
	rs, err := RunLocal(specs, qsim.Parallelism{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Len() != len(specs) {
		t.Fatalf("RunLocal merged %d of %d specs", rs.Len(), len(specs))
	}
	for i := range specs {
		local, _ := rs.Get(int64(i))
		jobs, err := BuildBatch(&specs[i])
		if kinds[i] == "nosuch" {
			if err == nil || !strings.Contains(local.Err, "nosuch") {
				t.Errorf("unknown family: BuildBatch err %v, RunLocal err %q", err, local.Err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", kinds[i], err)
		}
		if len(jobs) != specs[i].ExecBatch {
			t.Errorf("%s: %d jobs for a batch of %d", kinds[i], len(jobs), specs[i].ExecBatch)
		}
		alone, err := MergeBatch(qsim.BatchRun(jobs, qsim.Parallelism{Workers: 1}))
		if err != nil {
			t.Fatalf("%s: %v", kinds[i], err)
		}
		if local.Err != "" || !reflect.DeepEqual(local.Counts, alone) {
			t.Errorf("%s: RunLocal %v (%q), alone %v", kinds[i], local.Counts, local.Err, alone)
		}
		shots := 0
		for _, n := range alone {
			shots += n
		}
		if shots != specs[i].ExecBatch*specs[i].ExecShots {
			t.Errorf("%s: %d shots counted, want %d", kinds[i], shots, specs[i].ExecBatch*specs[i].ExecShots)
		}
		if local.Circuit != specs[i].ExecLabel() {
			t.Errorf("%s: labelled %q", kinds[i], local.Circuit)
		}
	}
	if _, err := BuildBatch(&Spec{TracePlane: TracePlane{CircuitName: "empty"}}); err == nil {
		t.Error("an empty exec plan was built")
	}
}
