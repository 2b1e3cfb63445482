package journal

import (
	"errors"
	"fmt"
	"os"
)

// ErrClosed is returned by Append on a writer that has been Closed or
// Abandoned.
var ErrClosed = errors.New("journal: writer closed")

// flushChunk is the buffered-bytes threshold past which Append hands
// pending frames to the OS. Frames stay in memory below it, so a
// crashed process loses at most this much un-Flushed tail.
const flushChunk = 64 << 10

// Writer appends CRC32C-framed records to a segmented journal
// directory. It is not safe for concurrent use; every stream in the
// cloud session has exactly one owning goroutine.
type Writer struct {
	dir  string
	opts Options

	f        File
	segPath  string
	segStart int64 // record index of the active segment's first record
	segBytes int64 // bytes handed to f in the active segment

	pending []byte // framed records not yet written to f

	recs      int64 // records appended across all segments (incl. pending)
	bytes     int64 // frame bytes appended across all segments (incl. pending)
	sinceSync int

	err    error // sticky after a write outlives its retries
	closed bool
}

// Create starts a fresh journal stream in dir, which must not already
// contain segments (resume an existing stream with OpenAt).
func Create(dir string, opts Options) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	starts, err := segments(dir)
	if err != nil {
		return nil, err
	}
	if len(starts) > 0 {
		return nil, fmt.Errorf("journal: Create in non-empty stream %s (use OpenAt to resume)", dir)
	}
	w := &Writer{dir: dir, opts: opts.withDefaults()}
	if err := w.openSegment(0); err != nil {
		return nil, err
	}
	return w, nil
}

// OpenAt resumes appending to the stream in dir at record rec, after
// scan, the Scan or ForEach of dir just before it: everything past
// record rec — later valid records, torn tails, damaged frames, whole
// segments — is removed first. rec must not exceed scan.Records.
// Resuming at the end of the scanned prefix reads no frame, because
// the scan knows where that prefix ends; an earlier rec walks the
// segment that holds it.
func OpenAt(dir string, scan ScanResult, rec int64, opts Options) (*Writer, error) {
	if rec < 0 || rec > scan.Records {
		return nil, fmt.Errorf("journal: OpenAt(%d) outside the %d valid records scanned in %s", rec, scan.Records, dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	starts, err := segments(dir)
	if err != nil {
		return nil, err
	}
	w := &Writer{dir: dir, opts: opts.withDefaults()}
	if len(starts) == 0 {
		if rec != 0 {
			return nil, fmt.Errorf("journal: OpenAt(%d) on empty stream %s", rec, dir)
		}
		if err := w.openSegment(0); err != nil {
			return nil, err
		}
		return w, nil
	}
	if starts[0] != 0 {
		return nil, fmt.Errorf("journal: stream %s is missing its first segment", dir)
	}
	// The resume point: the segment that will hold record rec and the
	// byte offset of its frame within that segment's valid prefix.
	seg, off, total := scan.tailSeg, scan.tailOff, scan.Bytes
	if rec < scan.Records {
		if seg, off, total, err = locate(dir, starts, rec); err != nil {
			return nil, err
		}
	}
	// Drop every segment after the resume point, truncate the resume
	// segment at the frame boundary, and append there.
	for _, s := range starts {
		if s > seg {
			if err := os.Remove(segPath(dir, s)); err != nil {
				return nil, err
			}
		}
	}
	path := segPath(dir, seg)
	if err := os.Truncate(path, off); err != nil {
		return nil, err
	}
	f, err := w.opts.OpenFile(path)
	if err != nil {
		return nil, err
	}
	w.f, w.segPath, w.segStart, w.segBytes = f, path, seg, off
	w.recs, w.bytes = rec, total
	return w, nil
}

// locate finds record rec, which lies inside the stream's valid
// prefix: the start index of the segment that will hold it and the
// byte offset of its frame. total is the on-disk frame bytes of
// records [0, rec).
func locate(dir string, starts []int64, rec int64) (seg, off, total int64, err error) {
	// The target segment is the last one starting at or before rec.
	seg = starts[0]
	for _, s := range starts {
		if s <= rec {
			seg = s
		}
	}
	// Walk frames of the target segment up to rec, validating as we
	// go; bytes before the target segment are whole valid segments by
	// the naming invariant, summed from their sizes.
	for _, s := range starts {
		if s >= seg {
			break
		}
		fi, err := os.Stat(segPath(dir, s))
		if err != nil {
			return 0, 0, 0, err
		}
		total += fi.Size()
	}
	res, err := scanSegment(segPath(dir, seg), seg, rec, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	if res.nextRec < rec {
		return 0, 0, 0, fmt.Errorf("journal: OpenAt(%d) but %s holds only %d valid records", rec, dir, res.nextRec)
	}
	return seg, res.validBytes, total + res.validBytes, nil
}

// Append frames payload and buffers it for the active segment,
// rotating first if the segment is full. The sticky write error, if
// any, is returned on this and every later call.
func (w *Writer) Append(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return ErrClosed
	}
	if len(payload) > maxPayload {
		return fmt.Errorf("journal: record of %d bytes exceeds the %d-byte frame cap", len(payload), maxPayload)
	}
	frameLen := int64(FrameHeaderLen + len(payload))
	if have := w.segBytes + int64(len(w.pending)); have > 0 && have+frameLen > segmentBytes {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	w.pending = AppendFrame(w.pending, payload)
	w.recs++
	w.bytes += frameLen
	if len(w.pending) >= flushChunk {
		if err := w.flushPending(); err != nil {
			return err
		}
	}
	if w.opts.SyncEvery > 0 {
		if w.sinceSync++; w.sinceSync >= w.opts.SyncEvery {
			w.sinceSync = 0
			return w.Sync()
		}
	}
	return nil
}

// retryAppends caps how many times a failed file write is immediately
// retried before the writer fail-stops.
const retryAppends = 3

// flushPending hands buffered frames to the OS, retrying failed
// writes up to retryAppends times. Retries are immediate and
// deterministic — the journal must not sleep — and a write that
// outlives them fail-stops the writer.
func (w *Writer) flushPending() error {
	if w.err != nil {
		return w.err
	}
	off, retries := 0, 0
	for off < len(w.pending) {
		n, err := w.f.Write(w.pending[off:])
		if n < 0 {
			n = 0
		}
		off += n
		w.segBytes += int64(n)
		if err == nil {
			continue
		}
		if retries++; retries > retryAppends {
			w.err = fmt.Errorf("journal: write to %s failed after %d retries: %w", w.segPath, retryAppends, err)
			return w.err
		}
	}
	w.pending = w.pending[:0]
	return nil
}

// Flush hands buffered frames to the OS without fsyncing. After a
// Flush the records survive a process kill (the OS page cache holds
// them), though not a power failure.
func (w *Writer) Flush() error {
	if w.closed {
		return w.stickyOrClosed()
	}
	return w.flushPending()
}

// Sync flushes buffered frames and fsyncs the active segment.
func (w *Writer) Sync() error {
	if w.closed {
		return w.stickyOrClosed()
	}
	if err := w.flushPending(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		// An fsync failure leaves the durable state unknowable; treat
		// it as fatal rather than guessing.
		w.err = fmt.Errorf("journal: fsync %s: %w", w.segPath, err)
		return w.err
	}
	return nil
}

// Close seals the stream: flush, fsync, and close the active segment.
func (w *Writer) Close() error {
	if w.closed {
		return w.stickyOrClosed()
	}
	w.closed = true
	if err := w.flushPending(); err != nil {
		w.f.Close()
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("journal: fsync %s: %w", w.segPath, err)
		w.f.Close()
		return w.err
	}
	return w.f.Close()
}

// Abandon drops buffered frames and closes the active segment without
// flushing, leaving the on-disk stream exactly as a process kill
// would. Tests use it to make crash points deterministic.
func (w *Writer) Abandon() {
	if w.closed {
		return
	}
	w.closed = true
	w.pending = nil
	if w.f != nil {
		w.f.Close()
	}
}

// Records returns the number of records appended, including buffered
// ones.
func (w *Writer) Records() int64 { return w.recs }

// Bytes returns the framed size of the stream in bytes, including
// buffered frames.
func (w *Writer) Bytes() int64 { return w.bytes }

func (w *Writer) stickyOrClosed() error {
	if w.err != nil {
		return w.err
	}
	return ErrClosed
}

// rotate seals the active segment and opens the next one, named by the
// index of the record about to be appended.
func (w *Writer) rotate() error {
	if err := w.flushPending(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("journal: fsync %s: %w", w.segPath, err)
		return w.err
	}
	if err := w.f.Close(); err != nil {
		w.err = fmt.Errorf("journal: close %s: %w", w.segPath, err)
		return w.err
	}
	w.f = nil
	return w.openSegment(w.recs)
}

// openSegment opens (creating if needed) the segment whose first
// record has index rec and makes it the active segment.
func (w *Writer) openSegment(rec int64) error {
	path := segPath(w.dir, rec)
	f, err := w.opts.OpenFile(path)
	if err != nil {
		w.err = fmt.Errorf("journal: open segment %s: %w", path, err)
		return w.err
	}
	w.f, w.segPath, w.segStart, w.segBytes = f, path, rec, 0
	return nil
}
