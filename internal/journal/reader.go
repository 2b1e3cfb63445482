package journal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"
)

// ScanResult describes the longest valid prefix of a journal stream
// and whatever damage follows it. Damage never surfaces as records:
// the reader stops at the first invalid frame and accounts for the
// rest as dropped.
type ScanResult struct {
	// Records is the number of frames in the valid prefix.
	Records int64
	// Bytes is the on-disk size of the valid prefix, headers included.
	Bytes int64

	// Truncated reports that data past the valid prefix was dropped.
	Truncated bool
	// DroppedBytes counts the bytes past the valid prefix: the damaged
	// segment's remainder plus every later segment in full.
	DroppedBytes int64
	// DamagedFile is the segment holding the first invalid frame (or
	// the first out-of-sequence segment), empty when the stream is
	// clean.
	DamagedFile string
	// Reason says what ended the prefix: "torn frame", "checksum
	// mismatch", "implausible frame length", or "segment gap".
	Reason string

	// tailSeg and tailOff say where the valid prefix ends: the
	// first-record index of the last segment scanned and the byte
	// offset in it. OpenAt resumes there without reading a frame.
	tailSeg, tailOff int64
}

// Scan validates the stream in dir and reports its valid prefix. A
// missing directory scans as an empty, clean stream.
func Scan(dir string) (ScanResult, error) {
	return ForEach(dir, nil)
}

// ForEach replays every record in the stream's valid prefix through
// fn (which may be nil to validate only). The payload slice is reused
// between calls — fn must not retain it. An fn error aborts the
// replay and is returned as-is; damage is not an error, it just ends
// the prefix and is described in the ScanResult.
func ForEach(dir string, fn func(rec int64, payload []byte) error) (ScanResult, error) {
	var out ScanResult
	starts, err := segments(dir)
	if err != nil {
		return out, err
	}
	damagedAt := func(i int, res segScan) error {
		// Everything from the damage point on is dropped: the rest of
		// the damaged segment plus all later segments (their first
		// records no longer connect to the valid prefix).
		out.Truncated = true
		out.DroppedBytes += res.size - res.validBytes
		for _, s := range starts[i+1:] {
			fi, err := os.Stat(segPath(dir, s))
			if err != nil {
				return err
			}
			out.DroppedBytes += fi.Size()
		}
		return nil
	}
	for i, s := range starts {
		if s != out.Records {
			// A segment whose first-record index does not continue the
			// prefix (missing or half-deleted predecessor).
			out.Truncated = true
			out.DamagedFile = segPath(dir, s)
			out.Reason = "segment gap"
			for _, l := range starts[i:] {
				fi, err := os.Stat(segPath(dir, l))
				if err != nil {
					return out, err
				}
				out.DroppedBytes += fi.Size()
			}
			return out, nil
		}
		res, err := scanSegment(segPath(dir, s), s, -1, fn)
		if err != nil {
			return out, err
		}
		out.Records = res.nextRec
		out.Bytes += res.validBytes
		out.tailSeg, out.tailOff = s, res.validBytes
		if res.reason != "" {
			out.DamagedFile = segPath(dir, s)
			out.Reason = res.reason
			if err := damagedAt(i, res); err != nil {
				return out, err
			}
			return out, nil
		}
	}
	return out, nil
}

// Replay hands fn the records [from, scan.Records) of the stream in
// dir, after scan, the Scan or ForEach of dir just before it. It opens
// only the segments that hold those records, walking the one that holds
// record from from its start, and stops where the scan ended the valid
// prefix, so a damaged tail ends the replay where it ended the scan.
// At from == scan.Records it reads no frame. from must lie in
// [0, scan.Records], and a stream that no longer holds the prefix the
// scan found is an error. An fn error aborts the replay and is
// returned as-is; fn must not retain the payload.
func Replay(dir string, scan ScanResult, from int64, fn func(rec int64, payload []byte) error) error {
	if from < 0 || from > scan.Records {
		return fmt.Errorf("journal: Replay(%d) outside the %d valid records scanned in %s", from, scan.Records, dir)
	}
	if from == scan.Records {
		return nil
	}
	starts, err := segments(dir)
	if err != nil {
		return err
	}
	// The first segment read is the last one starting at or before from.
	first := 0
	for i, s := range starts {
		if s <= from {
			first = i
		}
	}
	changed := fmt.Errorf("journal: %s no longer holds the %d valid records its scan found", dir, scan.Records)
	if len(starts) == 0 || starts[first] > from {
		return changed
	}
	rec := starts[first]
	skip := func(r int64, payload []byte) error {
		if r < from {
			return nil
		}
		return fn(r, payload)
	}
	for _, s := range starts[first:] {
		if rec >= scan.Records || s != rec {
			break
		}
		res, err := scanSegment(segPath(dir, s), s, scan.Records, skip)
		if err != nil {
			return err
		}
		rec = res.nextRec
		if res.reason != "" {
			break
		}
	}
	if rec < scan.Records {
		return changed
	}
	return nil
}

// readers recycles the scanners' read buffers, so the streams a
// restart scans one after another share one buffer rather than
// allocating one per segment. 64 KiB a read keeps the syscalls per
// segment few; a frame longer than that is read straight into its
// payload.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// segScan is one segment's validation outcome.
type segScan struct {
	nextRec    int64  // record index after the segment's valid prefix
	validBytes int64  // bytes of that prefix within the segment
	size       int64  // total file size
	reason     string // "" when the whole segment is valid
}

// scanSegment walks the frames of one segment starting at record
// index rec, stopping at the first invalid frame or — when upTo >= 0 —
// once rec reaches upTo. fn (optional) receives each valid payload.
func scanSegment(path string, rec, upTo int64, fn func(rec int64, payload []byte) error) (segScan, error) {
	out := segScan{nextRec: rec}
	f, err := os.Open(path)
	if err != nil {
		return out, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil {
		return out, err
	} else {
		out.size = fi.Size()
	}
	br := readers.Get().(*bufio.Reader)
	br.Reset(f)
	defer func() {
		br.Reset(nil)
		readers.Put(br)
	}()
	var hdr [FrameHeaderLen]byte
	var payload []byte
	for upTo < 0 || out.nextRec < upTo {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return out, nil // clean end of segment
			}
			if err == io.ErrUnexpectedEOF {
				out.reason = "torn frame"
				return out, nil
			}
			return out, fmt.Errorf("journal: read %s: %w", path, err)
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n > maxPayload {
			out.reason = "implausible frame length"
			return out, nil
		}
		if int(n) > cap(payload) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				out.reason = "torn frame"
				return out, nil
			}
			return out, fmt.Errorf("journal: read %s: %w", path, err)
		}
		if binary.LittleEndian.Uint32(hdr[4:8]) != frameCRC(hdr[:], payload) {
			out.reason = "checksum mismatch"
			return out, nil
		}
		if fn != nil {
			if err := fn(out.nextRec, payload); err != nil {
				return out, err
			}
		}
		out.nextRec++
		out.validBytes += int64(FrameHeaderLen) + int64(n)
	}
	return out, nil
}
