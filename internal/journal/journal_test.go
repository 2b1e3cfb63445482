package journal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testPayloads builds a deterministic record set with size variety:
// empty records, one-byte records, and records big enough to straddle
// flush chunks.
func testPayloads(n int) [][]byte {
	r := rand.New(rand.NewSource(7))
	out := make([][]byte, n)
	for i := range out {
		var size int
		switch i % 5 {
		case 0:
			size = 0
		case 1:
			size = 1
		case 2:
			size = 37
		case 3:
			size = 1024
		default:
			size = 300 + r.Intn(2000)
		}
		p := make([]byte, size)
		r.Read(p)
		out[i] = p
	}
	return out
}

// smallSegments shrinks the segment cap for the test so a few hundred
// records rotate many times.
func smallSegments(t *testing.T, n int64) {
	old := segmentBytes
	segmentBytes = n
	t.Cleanup(func() { segmentBytes = old })
}

func writeStream(t *testing.T, dir string, payloads [][]byte, opts Options) *Writer {
	t.Helper()
	w, err := Create(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// readAll replays the stream and returns copies of every payload.
func readAll(t *testing.T, dir string) ([][]byte, ScanResult) {
	t.Helper()
	var got [][]byte
	res, err := ForEach(dir, func(rec int64, payload []byte) error {
		if int64(len(got)) != rec {
			return fmt.Errorf("record index %d delivered out of order (have %d)", rec, len(got))
		}
		got = append(got, bytes.Clone(payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

func checkPrefix(t *testing.T, got, want [][]byte, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("recovered %d records, want %d", len(got), n)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d corrupted on replay", i)
		}
	}
}

func TestRoundTripWithRotation(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(400)
	// Small segments force many rotations.
	smallSegments(t, 8<<10)
	w := writeStream(t, dir, payloads, Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	starts, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) < 4 {
		t.Fatalf("expected several segments at 8KiB rotation, got %d", len(starts))
	}
	got, res := readAll(t, dir)
	checkPrefix(t, got, payloads, len(payloads))
	if res.Truncated || res.Records != int64(len(payloads)) {
		t.Fatalf("clean stream misread: %+v", res)
	}
	if res.Bytes != w.Bytes() {
		t.Fatalf("reader bytes %d != writer bytes %d", res.Bytes, w.Bytes())
	}
}

func TestEmptyAndMissingStream(t *testing.T) {
	res, err := Scan(filepath.Join(t.TempDir(), "nothing-here"))
	if err != nil || res.Records != 0 || res.Truncated {
		t.Fatalf("missing dir should scan clean and empty: %+v err=%v", res, err)
	}
	dir := t.TempDir()
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	res, err = Scan(dir)
	if err != nil || res.Records != 0 || res.Truncated {
		t.Fatalf("empty stream should scan clean: %+v err=%v", res, err)
	}
}

// lastSegment returns the path and contents of the stream's final
// segment and the record count of everything before its last record.
func lastSegment(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	starts, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, starts[len(starts)-1])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestTruncateFinalRecordEveryOffset chops the stream's last segment
// at every byte offset inside its final frame. The reader must always
// recover exactly the records before it — a torn tail never yields a
// partial or garbage record.
func TestTruncateFinalRecordEveryOffset(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(23)
	smallSegments(t, 4<<10)
	w := writeStream(t, dir, payloads, Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path, data := lastSegment(t, dir)
	last := payloads[len(payloads)-1]
	frameLen := FrameHeaderLen + len(last)
	frameStart := len(data) - frameLen
	if frameStart < 0 {
		t.Fatalf("last segment smaller than final frame (%d < %d)", len(data), frameLen)
	}
	for off := frameStart; off < len(data); off++ {
		if err := os.WriteFile(path, data[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		got, res := readAll(t, dir)
		checkPrefix(t, got, payloads, len(payloads)-1)
		if off == frameStart {
			// Chopped exactly at the frame boundary: a clean tail.
			if res.Truncated {
				t.Fatalf("offset %d: clean boundary reported as damage: %+v", off, res)
			}
			continue
		}
		if !res.Truncated || res.Reason != "torn frame" {
			t.Fatalf("offset %d: want torn-frame truncation, got %+v", off, res)
		}
		if res.DroppedBytes != int64(off-frameStart) {
			t.Fatalf("offset %d: dropped %d bytes, want %d", off, res.DroppedBytes, off-frameStart)
		}
	}
}

// TestBitFlipEveryFrameField flips one bit in each field of each
// frame — length, checksum, payload — and asserts the reader always
// recovers exactly the records before the damaged frame.
func TestBitFlipEveryFrameField(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(9)
	// Single segment so frame offsets are easy to compute.
	w := writeStream(t, dir, payloads, Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path, data := lastSegment(t, dir)
	offsets := make([]int, len(payloads))
	off := 0
	for i, p := range payloads {
		offsets[i] = off
		off += FrameHeaderLen + len(p)
	}
	for i, p := range payloads {
		fields := map[string]int{
			"length":   offsets[i] + 1,
			"checksum": offsets[i] + 5,
		}
		if len(p) > 0 {
			fields["payload"] = offsets[i] + FrameHeaderLen + len(p)/2
		}
		for field, target := range fields {
			corrupt := bytes.Clone(data)
			corrupt[target] ^= 0x10
			if err := os.WriteFile(path, corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			got, res := readAll(t, dir)
			checkPrefix(t, got, payloads, i)
			if !res.Truncated {
				t.Fatalf("record %d %s flip: damage not reported: %+v", i, field, res)
			}
			switch res.Reason {
			case "checksum mismatch", "torn frame", "implausible frame length":
			default:
				t.Fatalf("record %d %s flip: unexpected reason %q", i, field, res.Reason)
			}
		}
	}
}

// TestImplausibleLengthRejected sets a frame length beyond the cap;
// the reader must refuse it without attempting the allocation.
func TestImplausibleLengthRejected(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(4)
	w := writeStream(t, dir, payloads, Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path, data := lastSegment(t, dir)
	data[3] = 0xff // length's top byte: claims ~4 GiB
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, res := readAll(t, dir)
	checkPrefix(t, got, payloads, 0)
	if !res.Truncated || res.Reason != "implausible frame length" {
		t.Fatalf("want implausible-length truncation, got %+v", res)
	}
}

// TestSegmentGap deletes a middle segment; the reader must stop at the
// gap rather than splice disconnected records together.
func TestSegmentGap(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(300)
	smallSegments(t, 8<<10)
	w := writeStream(t, dir, payloads, Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	starts, err := segments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(starts))
	}
	if err := os.Remove(segPath(dir, starts[1])); err != nil {
		t.Fatal(err)
	}
	got, res := readAll(t, dir)
	checkPrefix(t, got, payloads, int(starts[1]))
	if !res.Truncated || res.Reason != "segment gap" {
		t.Fatalf("want segment-gap truncation, got %+v", res)
	}
}

func TestOpenAtResume(t *testing.T) {
	payloads := testPayloads(200)
	smallSegments(t, 8<<10)
	opts := Options{}
	// Resume points: start, mid-segment, and exact segment boundaries.
	probe := t.TempDir()
	w := writeStream(t, probe, payloads, opts)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	starts, err := segments(probe)
	if err != nil {
		t.Fatal(err)
	}
	resumes := []int64{0, 1, 17, int64(len(payloads)) - 1, int64(len(payloads))}
	for _, s := range starts {
		resumes = append(resumes, s)
	}
	for _, at := range resumes {
		t.Run(fmt.Sprintf("at=%d", at), func(t *testing.T) {
			dir := t.TempDir()
			w := writeStream(t, dir, payloads, opts)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			rw, err := OpenAt(dir, mustScan(t, dir), at, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rw.Records() != at {
				t.Fatalf("resumed writer reports %d records, want %d", rw.Records(), at)
			}
			// Append the dropped suffix again; the stream must read
			// back as if never interrupted.
			for _, p := range payloads[at:] {
				if err := rw.Append(p); err != nil {
					t.Fatal(err)
				}
			}
			if err := rw.Close(); err != nil {
				t.Fatal(err)
			}
			got, res := readAll(t, dir)
			checkPrefix(t, got, payloads, len(payloads))
			if res.Truncated {
				t.Fatalf("resumed stream reports damage: %+v", res)
			}
		})
	}
}

func TestOpenAtTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(40)
	w := writeStream(t, dir, payloads, Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path, data := lastSegment(t, dir)
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	scan := mustScan(t, dir)
	if scan.Records != int64(len(payloads)-1) || !scan.Truncated {
		t.Fatalf("torn stream scans as %+v", scan)
	}
	rw, err := OpenAt(dir, scan, scan.Records, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.Append(payloads[len(payloads)-1]); err != nil {
		t.Fatal(err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := readAll(t, dir)
	checkPrefix(t, got, payloads, len(payloads))
	if res.Truncated {
		t.Fatalf("tail not repaired: %+v", res)
	}
}

func TestOpenAtPastValidPrefix(t *testing.T) {
	dir := t.TempDir()
	w := writeStream(t, dir, testPayloads(5), Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenAt(dir, mustScan(t, dir), 9, Options{}); err == nil {
		t.Fatal("OpenAt past the valid prefix must fail")
	}
}

func mustScan(t *testing.T, dir string) ScanResult {
	t.Helper()
	scan, err := Scan(dir)
	if err != nil {
		t.Fatal(err)
	}
	return scan
}

// streamFiles reads every file of the stream in dir, by name.
func streamFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

// boundaryStream writes payloads in small segments, then damages the
// next-to-last segment so the valid prefix ends exactly at a rotation
// boundary: that segment is torn inside its first frame ("torn"), cut
// to nothing ("empty") or gone ("gone"), and the last segment, intact,
// no longer connects. It returns the prefix's record count, the
// damaged segment's first-record index.
func boundaryStream(t *testing.T, dir string, payloads [][]byte, opts Options, shape string) int64 {
	t.Helper()
	if err := writeStream(t, dir, payloads, opts).Close(); err != nil {
		t.Fatal(err)
	}
	starts, err := segments(dir)
	if err != nil || len(starts) < 3 {
		t.Fatalf("want several segments, have %v (%v)", starts, err)
	}
	damaged := starts[len(starts)-2]
	path := segPath(dir, damaged)
	switch shape {
	case "torn":
		data, err := os.ReadFile(path)
		if err == nil {
			err = os.WriteFile(path, data[:FrameHeaderLen-3], 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	case "empty":
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
	case "gone":
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}
	return damaged
}

// TestOpenAtRotationBoundary is TestOpenAtResume,
// TestOpenAtTruncatesTornTail and TestOpenAtPastValidPrefix on streams
// whose valid prefix ends exactly where one segment rotated to the
// next and a later segment survives: the scan's tail is then the start
// of a segment (or the end of the one before it), not the last file,
// and resuming there must read as if never interrupted, exactly as a
// walk to the record would.
func TestOpenAtRotationBoundary(t *testing.T) {
	payloads := testPayloads(200)
	smallSegments(t, 8<<10)
	opts := Options{}
	for _, shape := range []string{"torn", "empty", "gone"} {
		t.Run(shape, func(t *testing.T) {
			end := boundaryStream(t, t.TempDir(), payloads, opts, shape)
			for _, at := range []int64{0, 1, end - 1, end} {
				dir := t.TempDir()
				boundaryStream(t, dir, payloads, opts, shape)
				scan := mustScan(t, dir)
				if scan.Records != end || !scan.Truncated {
					t.Fatalf("boundary stream scans as %+v, want %d records", scan, end)
				}
				rw, err := OpenAt(dir, scan, at, opts)
				if err != nil {
					t.Fatal(err)
				}
				if rw.Records() != at {
					t.Fatalf("at=%d: resumed writer reports %d records", at, rw.Records())
				}
				for _, p := range payloads[at:] {
					if err := rw.Append(p); err != nil {
						t.Fatal(err)
					}
				}
				if err := rw.Close(); err != nil {
					t.Fatal(err)
				}
				got, res := readAll(t, dir)
				checkPrefix(t, got, payloads, len(payloads))
				if res.Truncated || res.Bytes != rw.Bytes() {
					t.Fatalf("at=%d: resumed stream reads %+v, writer wrote %d bytes", at, res, rw.Bytes())
				}
			}
			dir := t.TempDir()
			boundaryStream(t, dir, payloads, opts, shape)
			before := streamFiles(t, dir)
			if _, err := OpenAt(dir, mustScan(t, dir), end+1, opts); err == nil {
				t.Fatal("OpenAt past the valid prefix must fail")
			}
			if after := streamFiles(t, dir); !reflect.DeepEqual(after, before) {
				t.Fatal("a refused OpenAt changed the stream")
			}
		})
	}
}

// replayed collects what Replay hands fn from record from on.
func replayed(dir string, scan ScanResult, from int64) ([]int64, [][]byte, error) {
	var recs []int64
	var got [][]byte
	err := Replay(dir, scan, from, func(rec int64, payload []byte) error {
		recs = append(recs, rec)
		got = append(got, bytes.Clone(payload))
		return nil
	})
	return recs, got, err
}

// checkReplay holds Replay from every record of the scanned prefix,
// and from its end, to ForEach's records filtered to rec >= from.
func checkReplay(t *testing.T, dir string, scan ScanResult) {
	t.Helper()
	var all [][]byte
	if _, err := ForEach(dir, func(_ int64, payload []byte) error {
		all = append(all, bytes.Clone(payload))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if int64(len(all)) != scan.Records {
		t.Fatalf("ForEach read %d records, the scan %d", len(all), scan.Records)
	}
	for from := int64(0); from <= scan.Records; from++ {
		recs, got, err := replayed(dir, scan, from)
		if err != nil {
			t.Fatalf("Replay(%d): %v", from, err)
		}
		if len(got) != len(all)-int(from) {
			t.Fatalf("Replay(%d) handed fn %d records, want %d", from, len(got), len(all)-int(from))
		}
		for i := range got {
			if recs[i] != from+int64(i) || !bytes.Equal(got[i], all[from+int64(i)]) {
				t.Fatalf("Replay(%d): call %d is record %d, want record %d as ForEach read it", from, i, recs[i], from+int64(i))
			}
		}
	}
}

// TestReplaySuffix resumes a replay from a scan, for every record of a
// stream that rotates many times: it hands fn what ForEach would from
// that record on, and reads no segment wholly before it — a segment
// damaged after the scan goes unnoticed by a replay that starts past
// it — and no frame at all from the end of the prefix. A damaged tail
// ends the replay where it ended the scan.
func TestReplaySuffix(t *testing.T) {
	payloads := testPayloads(200)
	smallSegments(t, 8<<10)
	dir := t.TempDir()
	if err := writeStream(t, dir, payloads, Options{}).Close(); err != nil {
		t.Fatal(err)
	}
	scan := mustScan(t, dir)
	checkReplay(t, dir, scan)
	for _, from := range []int64{-1, scan.Records + 1} {
		if _, _, err := replayed(dir, scan, from); err == nil {
			t.Fatalf("Replay(%d) of a %d-record scan must be refused", from, scan.Records)
		}
	}
	stop := errors.New("stop")
	if err := Replay(dir, scan, 3, func(int64, []byte) error { return stop }); err != stop {
		t.Fatalf("Replay returned %v, want fn's error as it is", err)
	}

	// Damage the first segment after the scan: a replay from the second
	// segment on does not read it, one from record 0 finds the stream
	// shorter than the scan.
	starts, err := segments(dir)
	if err != nil || len(starts) < 4 {
		t.Fatalf("want several segments, have %v (%v)", starts, err)
	}
	first := segPath(dir, starts[0])
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[FrameHeaderLen] ^= 0x40
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, got, err := replayed(dir, scan, starts[1]); err != nil || len(got) != len(payloads)-int(starts[1]) {
		t.Fatalf("Replay(%d) past a damaged first segment read %d records, %v", starts[1], len(got), err)
	}
	if _, _, err := replayed(dir, scan, 0); err == nil {
		t.Fatal("Replay(0) of a stream damaged after its scan must fail")
	}

	// From the end of the prefix nothing is opened: not even a stream
	// whose segments are all gone.
	for _, s := range starts {
		if err := os.Remove(segPath(dir, s)); err != nil {
			t.Fatal(err)
		}
	}
	if recs, _, err := replayed(dir, scan, scan.Records); err != nil || len(recs) != 0 {
		t.Fatalf("Replay(%d) of a %d-record scan = %v, %v; want no record and no error", scan.Records, scan.Records, recs, err)
	}
	if _, _, err := replayed(dir, scan, scan.Records-1); err == nil {
		t.Fatal("Replay of a stream removed after its scan must fail")
	}

	// Damaged tails: a torn final record, and prefixes that end at a
	// rotation boundary with a later segment still on disk.
	torn := t.TempDir()
	if err := writeStream(t, torn, payloads, Options{}).Close(); err != nil {
		t.Fatal(err)
	}
	path, data := lastSegment(t, torn)
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if scan := mustScan(t, torn); !scan.Truncated {
		t.Fatalf("torn stream scans as %+v", scan)
	} else {
		checkReplay(t, torn, scan)
	}
	for _, shape := range []string{"torn", "empty", "gone"} {
		dir := t.TempDir()
		end := boundaryStream(t, dir, payloads, Options{}, shape)
		scan := mustScan(t, dir)
		if scan.Records != end {
			t.Fatalf("%s: boundary stream scans as %+v, want %d records", shape, scan, end)
		}
		checkReplay(t, dir, scan)
	}
}

func TestCreateOnNonEmptyStream(t *testing.T) {
	dir := t.TempDir()
	w := writeStream(t, dir, testPayloads(3), Options{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, Options{}); err == nil {
		t.Fatal("Create on an existing stream must fail")
	}
}

func TestAbandonLosesOnlyUnflushedTail(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(30)
	w, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads[:20] {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads[20:] {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	w.Abandon()
	if err := w.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after abandon: %v", err)
	}
	got, res := readAll(t, dir)
	checkPrefix(t, got, payloads, 20)
	if res.Truncated {
		// The abandoned tail was buffered, never written: the on-disk
		// stream ends at a clean frame boundary.
		t.Fatalf("abandoned buffered tail should leave a clean stream: %+v", res)
	}
}

// faultyFile injects write failures: each entry in failAt is a
// 1-based index into the sequence of Write calls that should fail.
type faultyFile struct {
	f      File
	calls  int
	failAt map[int]bool
	short  bool // fail with a partial write instead of none
}

func (ff *faultyFile) Write(p []byte) (int, error) {
	ff.calls++
	if ff.failAt[ff.calls] {
		if ff.short && len(p) > 1 {
			n, _ := ff.f.Write(p[:len(p)/2])
			return n, errors.New("injected partial write")
		}
		return 0, errors.New("injected write failure")
	}
	return ff.f.Write(p)
}

func (ff *faultyFile) Sync() error  { return ff.f.Sync() }
func (ff *faultyFile) Close() error { return ff.f.Close() }

func faultyOpts(failAt map[int]bool, short bool) Options {
	return Options{
		OpenFile: func(path string) (File, error) {
			f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			return &faultyFile{f: f, failAt: failAt, short: short}, nil
		},
	}
}

// TestTransientWriteErrorsRetried injects sporadic write failures
// (full and partial) below the retry cap; the stream must come out
// intact.
func TestTransientWriteErrorsRetried(t *testing.T) {
	for _, short := range []bool{false, true} {
		dir := t.TempDir()
		payloads := testPayloads(50)
		failAt := map[int]bool{1: true, 3: true, 7: true, 8: true}
		w, err := Create(dir, faultyOpts(failAt, short))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			if err := w.Append(p); err != nil {
				t.Fatal(err)
			}
			// Flush each record so every Append exercises the faulty
			// write path.
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, res := readAll(t, dir)
		checkPrefix(t, got, payloads, len(payloads))
		if res.Truncated {
			t.Fatalf("short=%v: stream damaged: %+v", short, res)
		}
	}
}

// TestPersistentWriteErrorFailStops injects more consecutive failures
// than the retry cap: the writer must fail-stop with a sticky error,
// and the records flushed before the failure must still read back.
func TestPersistentWriteErrorFailStops(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(10)
	// Fail every write from the 6th on, forever.
	failAt := map[int]bool{}
	for i := 6; i < 200; i++ {
		failAt[i] = true
	}
	w, err := Create(dir, faultyOpts(failAt, false))
	if err != nil {
		t.Fatal(err)
	}
	var stuck error
	good := 0
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			stuck = err
			break
		}
		if err := w.Flush(); err != nil {
			stuck = err
			break
		}
		good++
	}
	if stuck == nil {
		t.Fatal("persistent write failures did not surface")
	}
	if w.err == nil {
		t.Fatal("writer did not fail-stop")
	}
	if err := w.Append([]byte("more")); !errors.Is(err, w.err) {
		t.Fatalf("append after fail-stop returned %v, want sticky %v", err, w.err)
	}
	got, res := readAll(t, dir)
	checkPrefix(t, got, payloads, good)
	_ = res // a partial flush may leave a torn tail; the prefix is what matters
}

// TestSyncEveryCadence smoke-checks the fsync cadence path end to end.
func TestSyncEveryCadence(t *testing.T) {
	dir := t.TempDir()
	payloads := testPayloads(64)
	w := writeStream(t, dir, payloads, Options{SyncEvery: 5})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, res := readAll(t, dir)
	checkPrefix(t, got, payloads, len(payloads))
	if res.Truncated {
		t.Fatalf("stream damaged: %+v", res)
	}
}
