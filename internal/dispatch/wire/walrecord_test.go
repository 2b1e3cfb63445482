package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"time"
)

// walFixtures is one record of each of the five types (result twice:
// counts, and an error).
func walFixtures() []WALRecord {
	return []WALRecord{
		{Type: WALSubmit, Seq: 3, Key: "load/3", Spec: testSpec("ghz", 3)},
		{Type: WALSeal},
		{Type: WALExpire, Seq: 3, Attempt: 2},
		{Type: WALResult, Seq: 3, Attempt: 2, Worker: "w1", Counts: []Count{{Bits: "00", N: 3}, {Bits: "01", N: 5}, {Bits: "11", N: 24}}},
		{Type: WALResult, Seq: 4, Attempt: 5, Err: "lease expired on attempt 5/5 (last worker w1)"},
		{Type: WALCancel, Seq: 3},
	}
}

// withByte is b with the byte at i replaced.
func withByte(b []byte, i int, v byte) []byte {
	b = bytes.Clone(b)
	b[i] = v
	return b
}

// TestWALRecordRoundTrip: every record type survives encode → decode
// unchanged, always encodes to the same bytes, and has no second
// encoding — whatever a torn, damaged or hand-made frame could hold
// instead is refused.
func TestWALRecordRoundTrip(t *testing.T) {
	var reused WALRecord
	for _, r := range walFixtures() {
		raw := AppendWALRecord(nil, &r)
		var back WALRecord
		if err := DecodeWALRecord(raw, &back); err != nil {
			t.Fatalf("%s: %v", r.Type, err)
		}
		if !reflect.DeepEqual(back, r) {
			t.Errorf("%s changed across the WAL:\n sent %+v\n got  %+v", r.Type, r, back)
		}
		if again := AppendWALRecord([]byte("head"), &back); string(again) != "head"+string(raw) {
			t.Errorf("%s re-encodes to different bytes, or not at the end of the buffer", r.Type)
		}
		// A WALRecord reused across a log carries nothing from one record
		// into the next.
		if err := DecodeWALRecord(raw, &reused); err != nil {
			t.Fatal(err)
		}
		if len(r.Counts) == 0 {
			reused.Counts = nil
		}
		if !reflect.DeepEqual(reused, r) {
			t.Errorf("%s decoded into a used record:\n want %+v\n got  %+v", r.Type, r, reused)
		}
		for cut := 0; cut < len(raw); cut++ {
			if err := DecodeWALRecord(raw[:cut], &back); err == nil {
				t.Fatalf("%s truncated to %d of %d bytes was accepted", r.Type, cut, len(raw))
			}
		}
		if err := DecodeWALRecord(append(bytes.Clone(raw), 0), &back); err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("%s with a trailing byte: %v", r.Type, err)
		}
		if err := DecodeWALRecord(withByte(raw, 0, WALVersion+1), &back); err == nil || !strings.Contains(err.Error(), "version 2, want 1") {
			t.Errorf("%s with layout version 2: %v", r.Type, err)
		}
	}

	// Instants JSON can deliver and a varint of nanoseconds cannot hold.
	for _, at := range []time.Time{{}, time.Date(1600, 2, 29, 1, 2, 3, 4, time.UTC), time.Date(2300, 1, 1, 0, 0, 0, 999999999, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC), time.Date(2019, 3, 4, 5, 6, 7, 8, time.FixedZone("", 2*3600))} {
		r := WALRecord{Type: WALSubmit, Spec: Spec{SubmitTime: at}}
		var back WALRecord
		if err := DecodeWALRecord(AppendWALRecord(nil, &r), &back); err != nil {
			t.Fatal(err)
		}
		if got := back.Spec.SubmitTime; !got.Equal(at) || got.Location() != time.UTC {
			t.Errorf("submit time %v came back as %v", at, got)
		}
	}

	// One value, one encoding.
	head := func(typ WALType) []byte { return []byte{WALVersion, byte(typ)} }
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	result := func(pairs ...string) []byte {
		b := str(str(append(head(WALResult), 6, 0), "w"), "") // seq 3, attempt 0
		b = binary.AppendUvarint(b, uint64(len(pairs)))
		for _, p := range pairs {
			b = append(str(b, p), 2)
		}
		return b
	}
	if err := DecodeWALRecord(result("00", "01"), new(WALRecord)); err != nil {
		t.Fatalf("hand-made result record: %v", err)
	}
	submit := AppendWALRecord(nil, &WALRecord{Type: WALSubmit, Spec: Spec{Privileged: true}})
	privileged := bytes.LastIndexByte(submit, 1)
	for name, bad := range map[string][]byte{
		"empty":               nil,
		"JSON-era record":     []byte(`{"v":1,"type":"seal","data":{}}`),
		"type tag 0":          head(0),
		"type tag 6":          head(WALCancel + 1),
		"padded seq varint":   append(head(WALCancel), 0x86, 0x00),
		"overlong seq varint": append(head(WALCancel), bytes.Repeat([]byte{0xff}, 11)...),
		"counts unsorted":     result("01", "00"),
		"counts repeated":     result("01", "01"),
		"bool byte 2":         withByte(submit, privileged, 2),
		// seq 0, empty key, 0 s, 1e9 ns
		"a billion nanoseconds": binary.AppendUvarint(append(head(WALSubmit), 0, 0, 0), 1e9),
	} {
		var r WALRecord
		if err := DecodeWALRecord(bad, &r); err == nil {
			t.Errorf("%s was accepted as %+v", name, r)
		} else if !strings.HasPrefix(err.Error(), "wire: WAL record: ") {
			t.Errorf("%s: error %q does not say what failed to decode", name, err)
		}
	}

	// A length prefix is checked against the bytes that are left before
	// anything is sized by it.
	huge := binary.AppendUvarint(result()[:len(result())-1], 1<<40)
	var r WALRecord
	if err := DecodeWALRecord(huge, &r); err == nil || cap(r.Counts) != 0 {
		t.Errorf("a counts prefix of 2^40 on a %d-byte record: err %v, room made for %d pairs", len(huge), err, cap(r.Counts))
	}
}

// FuzzDecodeWALRecord feeds DecodeWALRecord arbitrary bytes, seeded
// with one record of each type, each truncated at every offset, and a
// result record whose counts prefix exceeds its payload. It must never
// panic, never make room for more pairs than the input has bytes for,
// and whatever it accepts must re-encode to the very same bytes.
func FuzzDecodeWALRecord(f *testing.F) {
	for _, r := range walFixtures() {
		raw := AppendWALRecord(nil, &r)
		for n := 0; n <= len(raw); n++ {
			f.Add(raw[:n])
		}
	}
	empty := AppendWALRecord(nil, &WALRecord{Type: WALResult, Seq: 3, Worker: "w"})
	f.Add(binary.AppendUvarint(empty[:len(empty)-1], 1<<40))
	f.Fuzz(func(t *testing.T, b []byte) {
		var r WALRecord
		err := DecodeWALRecord(b, &r)
		if cap(r.Counts) > len(b) {
			t.Fatalf("room for %d pairs made from %d bytes of input", cap(r.Counts), len(b))
		}
		if err != nil {
			return
		}
		if again := AppendWALRecord(nil, &r); !bytes.Equal(again, b) {
			t.Fatalf("decoded %x\nas %+v,\nwhich encodes to %x", b, r, again)
		}
	})
}
