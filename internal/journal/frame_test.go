package journal

import (
	"bytes"
	"os"
	"testing"
)

// TestFrameRoundTrip: Frame returns what AppendFrame framed, and a
// segment is nothing but those frames back to back — the checkpoint
// files beside a journal and the journal itself share one envelope.
func TestFrameRoundTrip(t *testing.T) {
	payloads := testPayloads(12)
	var stream []byte
	for i, p := range payloads {
		b := AppendFrame(nil, p)
		got, err := Frame(b)
		if err != nil || !bytes.Equal(got, p) {
			t.Fatalf("payload %d (%d bytes): Frame = %d bytes, %v", i, len(p), len(got), err)
		}
		stream = AppendFrame(stream, p)
	}
	dir := t.TempDir()
	if err := writeStream(t, dir, payloads, Options{}).Close(); err != nil {
		t.Fatal(err)
	}
	if seg, err := os.ReadFile(segPath(dir, 0)); err != nil || !bytes.Equal(seg, stream) {
		t.Fatalf("segment differs from its payloads framed by AppendFrame (%d vs %d bytes, err %v)", len(seg), len(stream), err)
	}
}

// TestFrameBitFlipRejected flips one bit at every byte of a frame —
// length, checksum, payload — and cuts it at every length: each is an
// error, never a panic and never a different payload. So is a frame
// with anything after it.
func TestFrameBitFlipRejected(t *testing.T) {
	b := AppendFrame(nil, []byte("one frame, one checksum over length and payload"))
	for pos := range b {
		corrupt := bytes.Clone(b)
		corrupt[pos] ^= 0x04
		if _, err := Frame(corrupt); err == nil {
			t.Fatalf("bit flip at byte %d of %d went undetected", pos, len(b))
		}
	}
	for n := range b {
		if _, err := Frame(b[:n]); err == nil {
			t.Fatalf("frame torn at %d of %d bytes went undetected", n, len(b))
		}
	}
	if _, err := Frame(append(bytes.Clone(b), 0)); err == nil {
		t.Fatal("trailing byte went undetected")
	}
}

// FuzzFrame: Frame never panics, the only bytes it accepts are the ones
// AppendFrame writes for the payload it returns, and it accepts those.
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, nil))
	whole := AppendFrame(nil, []byte("payload"))
	f.Add(whole)
	f.Add(whole[:len(whole)-1])
	f.Add(append(bytes.Clone(whole), 0))
	f.Fuzz(func(t *testing.T, b []byte) {
		if payload, err := Frame(b); err == nil && !bytes.Equal(AppendFrame(nil, payload), b) {
			t.Fatalf("Frame accepted % x, which is not its payload % x framed", b, payload)
		}
		if payload, err := Frame(AppendFrame(nil, b)); err != nil || !bytes.Equal(payload, b) {
			t.Fatalf("Frame(AppendFrame(% x)) = % x, %v", b, payload, err)
		}
	})
}

// FuzzScan writes arbitrary bytes as a stream's one segment. Scan and
// ForEach must not panic or fail — damage ends the prefix, it is not an
// error — and must agree; Records and Bytes must describe a prefix of
// the file that is exactly the delivered payloads framed again, and
// DroppedBytes the rest of it. Resuming from that scan and appending
// one frame must then scan as the same prefix plus that frame, with
// nothing dropped.
func FuzzScan(f *testing.F) {
	var stream []byte
	for _, p := range testPayloads(4) {
		stream = AppendFrame(stream, p)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	flipped := bytes.Clone(stream)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(segPath(dir, 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		var framed []byte
		var n int64
		res, err := ForEach(dir, func(rec int64, payload []byte) error {
			if rec != n {
				t.Fatalf("record %d delivered as record %d", n, rec)
			}
			n++
			framed = AppendFrame(framed, payload)
			return nil
		})
		if err != nil {
			t.Fatalf("ForEach: %v", err)
		}
		if scan, err := Scan(dir); err != nil || scan != res {
			t.Fatalf("Scan = %+v, %v; ForEach = %+v", scan, err, res)
		}
		if res.Records != n || res.Bytes != int64(len(framed)) || !bytes.HasPrefix(data, framed) {
			t.Fatalf("%d records, %d bytes reported; %d delivered, re-framed to %d bytes (a prefix of the file: %v)",
				res.Records, res.Bytes, n, len(framed), bytes.HasPrefix(data, framed))
		}
		if rest := int64(len(data)) - res.Bytes; res.DroppedBytes != rest || res.Truncated != (rest > 0) || (res.Reason == "") != (rest == 0) {
			t.Fatalf("%d bytes follow the valid prefix: %+v", rest, res)
		}

		w, err := OpenAt(dir, res, res.Records, Options{})
		if err != nil {
			t.Fatalf("OpenAt after the scan: %v", err)
		}
		resumed := []byte("resumed")
		if err := w.Append(resumed); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var again []byte
		res2, err := ForEach(dir, func(_ int64, payload []byte) error {
			again = AppendFrame(again, payload)
			return nil
		})
		if want := AppendFrame(framed, resumed); err != nil || res2.Records != res.Records+1 || res2.Truncated || !bytes.Equal(again, want) {
			t.Fatalf("resumed after %+v, appended one frame: rescan %+v, %v (payloads as framed: %v)", res, res2, err, bytes.Equal(again, want))
		}
	})
}
