// Package journal implements a segmented append-only write-ahead log
// for the cloud session's durable event stream.
//
// A journal is a directory of segment files, each named by the index
// of its first record (0000000000000000.seg, then e.g.
// 0000000000004096.seg once the first segment rotates). Records are
// length-prefixed frames:
//
//	u32le  payload length
//	u32le  CRC32C over (length bytes ‖ payload)
//	bytes  payload
//
// The checksum covers the length field, so a bit flip in either the
// header or the payload is detected; there is no frame whose header is
// trusted but whose body is not. Readers accept the longest valid
// prefix of the stream and report — never silently skip — whatever
// follows the first damaged frame (torn tail from a crash mid-write,
// checksum mismatch from media corruption, or a missing segment).
//
// A writer resumes a stream from the scan that validated it: Scan and
// ForEach record where the valid prefix ends (the segment and the byte
// offset in it), and OpenAt, handed that result, truncates the torn
// tail and removes later segments there without reading a frame again,
// so a restart walks each stream once. A caller that cuts further back
// — to the record count a checkpoint pinned — names that record, and
// OpenAt walks only the segment holding it. OpenAt is what repairs the
// tail, so a caller that holds the prefix to an outside watermark
// checks it between the scan and the open: a log it refuses stays on
// disk as it was found. A reader that needs only the records from some
// record on resumes from the scan the same way: Replay opens no
// segment wholly before that record, and none at all when the record
// is the end of the prefix.
//
// Durability is configurable: SyncEvery fsyncs the active segment
// every N records, and rotation/Close always fsync, so a sealed
// segment is durable even across power loss. A process kill (SIGKILL)
// loses at most the writer's unflushed tail — which the reader then
// truncates away cleanly.
//
// Write failures degrade gracefully: each flush retries a capped
// number of times (immediately — the journal lives inside a
// deterministic simulator and must not sleep), and a failure that
// survives the retries fail-stops the writer with a sticky error
// rather than continuing undurable.
package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// FrameHeaderLen is the fixed per-record overhead: u32le payload
// length followed by u32le CRC32C over (length bytes ‖ payload).
const FrameHeaderLen = 8

// maxPayload bounds a single record. The cap exists so a corrupted
// length field cannot make a reader attempt a multi-gigabyte
// allocation: any frame claiming more than this is treated as damage.
const maxPayload = 1 << 26 // 64 MiB

// segSuffix names segment files; the stem is the zero-padded decimal
// index of the segment's first record.
const segSuffix = ".seg"

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// most platforms, and the conventional choice for storage framing).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// File is the subset of *os.File the writer needs. Tests inject
// fault-wrapped implementations through Options.OpenFile to exercise
// the retry and fail-stop paths.
type File interface {
	io.Writer
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	Close() error
}

// segmentBytes rotates to a new segment once the current one reaches
// this size. Segments always hold at least one whole frame, so a
// record larger than the cap still fits — in a segment of its own. A
// var only so the rotation tests can shrink it.
var segmentBytes int64 = 4 << 20

// Options configures a journal writer. The zero value is usable.
type Options struct {
	// SyncEvery fsyncs the active segment after every N appended
	// records. 0 (the default) syncs only on rotation, Sync, and
	// Close: cheap, and still loses nothing short of power failure.
	SyncEvery int
	// OpenFile opens a segment file for appending, creating it if
	// needed. nil uses the OS; tests inject faulty writers here.
	OpenFile func(path string) (File, error)
}

func (o Options) withDefaults() Options {
	if o.OpenFile == nil {
		o.OpenFile = func(path string) (File, error) {
			return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		}
	}
	return o
}

// segPath names the segment whose first record has index rec.
func segPath(dir string, rec int64) string {
	return filepath.Join(dir, fmt.Sprintf("%016d%s", rec, segSuffix))
}

// segments lists the stream's segment files sorted by first-record
// index. Files that do not parse as segments are ignored.
func segments(dir string) ([]int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var starts []int64
	for _, e := range ents {
		name := e.Name()
		stem, ok := strings.CutSuffix(name, segSuffix)
		if !ok || e.IsDir() {
			continue
		}
		n, err := strconv.ParseInt(stem, 10, 64)
		if err != nil || n < 0 {
			continue
		}
		starts = append(starts, n)
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts, nil
}

// Size returns the on-disk bytes of the stream in dir, damage and all:
// the most a scan of it can deliver, for a reader that sizes its
// tables before it scans. A missing directory is an empty stream.
func Size(dir string) (int64, error) {
	starts, err := segments(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, s := range starts {
		fi, err := os.Stat(segPath(dir, s))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

// frameCRC computes the frame checksum over the length header bytes
// followed by the payload.
func frameCRC(hdr []byte, payload []byte) uint32 {
	crc := crc32.Update(0, castagnoli, hdr[:4])
	return crc32.Update(crc, castagnoli, payload)
}

// AppendFrame appends payload to buf as one frame, the envelope of
// every checksummed file in the repo: a segment is a run of frames, a
// session checkpoint or the dispatcher's watermark a magic and one
// frame. The length field holds 32 bits; Writer.Append enforces the
// smaller per-record cap of a stream.
func AppendFrame(buf, payload []byte) []byte {
	at := len(buf)
	buf = append(append(buf, make([]byte, FrameHeaderLen)...), payload...)
	SealFrame(buf[at:])
	return buf
}

// SealFrame fills in the header of frame, FrameHeaderLen bytes of room
// followed by the payload, so that a payload encoded in place behind
// the room needs no copy to be framed. The payload must be shorter
// than 4 GiB.
func SealFrame(frame []byte) {
	payload := frame[FrameHeaderLen:]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], frameCRC(frame, payload))
}

// Frame returns the payload of b, which must be exactly one frame: a
// short, long, torn or bit-flipped b is an error. The payload aliases b.
func Frame(b []byte) ([]byte, error) {
	if len(b) < FrameHeaderLen || uint64(binary.LittleEndian.Uint32(b[0:4])) != uint64(len(b)-FrameHeaderLen) {
		return nil, fmt.Errorf("journal: torn frame: %d bytes are not a header and the payload length it declares", len(b))
	}
	payload := b[FrameHeaderLen:]
	if have, want := frameCRC(b, payload), binary.LittleEndian.Uint32(b[4:8]); have != want {
		return nil, fmt.Errorf("journal: frame checksum mismatch (have %08x, want %08x): torn or corrupt", have, want)
	}
	return payload, nil
}
