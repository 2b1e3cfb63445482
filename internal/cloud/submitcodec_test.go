package cloud

import (
	"bytes"
	"math"
	"testing"
	"time"
)

func submitCodecSpecs() []journalSubmit {
	base := time.Date(2021, 3, 14, 9, 26, 53, 589793238, time.UTC)
	return []journalSubmit{
		{Machine: "ibmq_athens", SubmitSeq: 7, Spec: JobSpec{
			SubmitTime: base, User: "tenant:team-α/grp", Machine: "ibmq_athens",
			BatchSize: 75, Shots: 8192, CircuitName: "qft", Width: 5,
			TotalDepth: 1200, TotalGateOps: 4800, CXTotal: 900, MemSlots: 5,
			PatienceSec: 86400.5, Privileged: true,
		}},
		{Machine: "", SubmitSeq: 0, Spec: JobSpec{SubmitTime: time.Unix(0, 1).UTC()}},
		{Machine: "ibmq_rome", SubmitSeq: 1 << 40, Spec: JobSpec{
			SubmitTime: base.Add(400 * 24 * time.Hour), User: "u",
			Machine: "ibmq_rome", Shots: 1, PatienceSec: 0,
		}},
	}
}

// TestSubmitRecordRoundTrip pins the input log's binary codec: every
// field survives encode→decode, including non-ASCII users and zero
// values.
func TestSubmitRecordRoundTrip(t *testing.T) {
	for i, js := range submitCodecSpecs() {
		buf := appendSubmitRecord(nil, js.Machine, js.SubmitSeq, &js.Spec)
		if buf[0] != jrecSubmit2 {
			t.Fatalf("record %d: type byte %d, want jrecSubmit2", i, buf[0])
		}
		got, err := decodeSubmitRecord(buf)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if got.Machine != js.Machine || got.SubmitSeq != js.SubmitSeq || got.Spec != js.Spec {
			t.Fatalf("record %d: round trip mismatch:\n got %+v\nwant %+v", i, got, js)
		}
	}
}

// TestSubmitRecordMalformed: truncation at every byte boundary and
// trailing garbage are errors, never panics.
func TestSubmitRecordMalformed(t *testing.T) {
	js := submitCodecSpecs()[0]
	full := appendSubmitRecord(nil, js.Machine, js.SubmitSeq, &js.Spec)
	for n := 0; n < len(full); n++ {
		if _, err := decodeSubmitRecord(full[:n]); err == nil {
			t.Fatalf("decode of %d/%d byte prefix succeeded", n, len(full))
		}
	}
	if _, err := decodeSubmitRecord(append(append([]byte{}, full...), 0x7f)); err == nil {
		t.Fatal("decode with trailing byte succeeded")
	}
}

// FuzzDecodeSubmitRecord feeds decodeSubmitRecord arbitrary bytes,
// seeded with the round-trip fixtures, every truncation of one record,
// a version-mangled copy and a trailing-byte copy. It must never
// panic, and whatever it accepts must survive decode → encode → decode.
func FuzzDecodeSubmitRecord(f *testing.F) {
	specs := submitCodecSpecs()
	for _, js := range specs {
		f.Add(appendSubmitRecord(nil, js.Machine, js.SubmitSeq, &js.Spec))
	}
	full := appendSubmitRecord(nil, specs[0].Machine, specs[0].SubmitSeq, &specs[0].Spec)
	for n := 0; n < len(full); n++ {
		f.Add(full[:n])
	}
	for _, at := range []int{0, 1} { // the type byte, the version
		bad := bytes.Clone(full)
		bad[at] = 99
		f.Add(bad)
	}
	f.Add(append(bytes.Clone(full), 0x7f))
	f.Fuzz(func(t *testing.T, b []byte) {
		js, err := decodeSubmitRecord(b)
		if err != nil {
			return
		}
		again, err := decodeSubmitRecord(appendSubmitRecord(nil, js.Machine, js.SubmitSeq, &js.Spec))
		if err != nil {
			t.Fatalf("re-encoded submit record does not decode: %v", err)
		}
		// A NaN patience is unequal to itself: compare its bits, then
		// the rest of the struct.
		if math.Float64bits(again.Spec.PatienceSec) != math.Float64bits(js.Spec.PatienceSec) {
			t.Fatalf("decode → encode → decode changed PatienceSec: %x, want %x",
				math.Float64bits(again.Spec.PatienceSec), math.Float64bits(js.Spec.PatienceSec))
		}
		again.Spec.PatienceSec, js.Spec.PatienceSec = 0, 0
		if again != js {
			t.Fatalf("decode → encode → decode changed the record:\n got %+v\nwant %+v", again, js)
		}
	})
}
