package wire

import (
	"bytes"
	"io"
	"slices"
	"testing"
	"time"

	"qcloud/internal/journal"
)

// traceFixtures are bindings a dispatcher could hold: the default
// window (zero instants), an explicit one, and an empty stream.
func traceFixtures() []TraceBinding {
	start := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	return []TraceBinding{
		{Seed: 5, Jobs: 4, Cancelled: []int64{1}},
		{Seed: 5, Start: start, End: start.Add(6 * time.Hour), Jobs: 4, Cancelled: []int64{1, 3}},
		{Seed: -1},
	}
}

// traceFile is the trace file holding csv, bound to b.
func traceFile(b *TraceBinding, csv []byte) []byte {
	// Writing into EncodeTraceFile's buffer cannot fail.
	file, _, _ := EncodeTraceFile(b, func(w io.Writer) error { _, err := w.Write(csv); return err })
	return file
}

// TestTraceFileRoundTrip: a trace file gives back its CSV for its own
// binding and for no other — every field of the binding counts — and a
// file cut short or carrying a trailing byte gives back nothing.
func TestTraceFileRoundTrip(t *testing.T) {
	csv := []byte("id,user\n1,u\n")
	for _, b := range traceFixtures() {
		file, kept, err := EncodeTraceFile(&b, func(w io.Writer) error { _, err := w.Write(csv); return err })
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kept, csv) || cap(file) != len(file) {
			t.Fatalf("%+v: encoded CSV %q in a file of %d bytes with room for %d", b, kept, len(file), cap(file))
		}
		if got := DecodeTraceFile(file, &b); !bytes.Equal(got, csv) {
			t.Fatalf("%+v: decoded %q", b, got)
		}
		for name, change := range map[string]func(*TraceBinding){
			"seed":       func(o *TraceBinding) { o.Seed++ },
			"start":      func(o *TraceBinding) { o.Start = o.Start.Add(-time.Second) },
			"end":        func(o *TraceBinding) { o.End = o.End.Add(time.Nanosecond) },
			"job count":  func(o *TraceBinding) { o.Jobs++ },
			"cancel set": func(o *TraceBinding) { o.Cancelled = append(slices.Clone(o.Cancelled), o.Jobs) },
		} {
			o := b
			change(&o)
			if got := DecodeTraceFile(file, &o); got != nil {
				t.Errorf("%+v: served for a binding with another %s", b, name)
			}
		}
		for n := 0; n < len(file); n++ {
			if got := DecodeTraceFile(file[:n], &b); got != nil {
				t.Fatalf("%+v: a file cut to %d of %d bytes was served", b, n, len(file))
			}
		}
		if got := DecodeTraceFile(append(bytes.Clone(file), 0), &b); got != nil {
			t.Errorf("%+v: a file with a trailing byte was served", b)
		}
		payload, err := journal.Frame(file[len(TraceFileMagic):])
		if err != nil {
			t.Fatal(err)
		}
		longer := journal.AppendFrame([]byte(TraceFileMagic), append(bytes.Clone(payload), 0))
		if got := DecodeTraceFile(longer, &b); got != nil {
			t.Errorf("%+v: a record with a byte after the CSV was served", b)
		}
	}
}

// FuzzReadTraceFile: decoding arbitrary bytes as the trace file never
// panics, and a file it accepts for a binding is exactly the file that
// binding and the CSV it returned encode to — so it never accepts a
// file bound to anything else, and what it accepts re-writes to the
// same bytes. The input is a frame payload the harness frames itself,
// so mutation reaches the record decoder instead of dying at the
// checksum; it is also tried unframed, as a whole file.
func FuzzReadTraceFile(f *testing.F) {
	wants := traceFixtures()
	for i := range wants {
		for _, csv := range []string{"", "id,user\n1,u\n"} {
			payload, err := journal.Frame(traceFile(&wants[i], []byte(csv))[len(TraceFileMagic):])
			if err != nil {
				f.Fatal(err)
			}
			f.Add(payload)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		for _, file := range [][]byte{journal.AppendFrame([]byte(TraceFileMagic), payload), payload} {
			for i := range wants {
				csv := DecodeTraceFile(file, &wants[i])
				if csv == nil {
					continue
				}
				if again := traceFile(&wants[i], csv); !bytes.Equal(again, file) {
					t.Fatalf("accepted for binding %d a file that binding and its CSV do not encode to:\n got  %x\n want %x", i, file, again)
				}
			}
		}
	})
}
