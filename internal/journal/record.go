package journal

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Record payload primitives: the field encodings the packages above
// the journal build their record codecs from (the trace job and machine
// stats records, the cloud submit record and session checkpoint, the
// dispatcher's WAL records). Integers are varints, strings and nested
// records are a uvarint length and the bytes, floats are 8
// little-endian bytes of the IEEE-754 bits, bools are one byte, and
// instants come in two widths: varint UTC Unix nanoseconds
// (binary.AppendVarint of t.UnixNano()) for instants the simulator
// produced, which lie in the study window, and AppendInstant's seconds
// and nanoseconds for instants a client chose.
//
// Every value has one encoding and RecordReader accepts no other, so a
// payload that decodes re-encodes to the same bytes.

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends b, a nested record, as AppendString would.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendBool appends v as one byte, 1 or 0.
func AppendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// AppendFloat64 appends the IEEE-754 bits of v, little-endian.
func AppendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// AppendInstant appends t as varint Unix seconds and uvarint
// nanoseconds within the second. Unlike a single varint of
// nanoseconds, which holds the years 1678 to 2262 only, it round-trips
// every instant a time.Time holds — the zero Time and every RFC 3339
// year included.
func AppendInstant(buf []byte, t time.Time) []byte {
	buf = binary.AppendVarint(buf, t.Unix())
	return binary.AppendUvarint(buf, uint64(t.Nanosecond()))
}

// RecordReader reads one record payload as a fixed field sequence.
// The first malformed field sets a sticky error, after which every
// read returns the zero value, so a decode body stays a flat field
// list ending in one Finish check. It never panics on hostile bytes:
// a second line of defense behind the journal's frame checksums.
type RecordReader struct {
	b   []byte
	off int
	err error
}

// NewRecordReader returns a reader positioned at the start of b.
func NewRecordReader(b []byte) *RecordReader { return &RecordReader{b: b} }

// Finish reports the sticky error, or trailing bytes if the field
// sequence did not consume the whole payload.
func (d *RecordReader) Finish() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("%d trailing bytes", len(d.b)-d.off)
	}
	return d.err
}

// Err reports the sticky error so far, for a loop that should stop at
// the first malformed element.
func (d *RecordReader) Err() error { return d.err }

// fail records the first malformed field; every caller has already
// returned early on a set error.
func (d *RecordReader) fail(field string) {
	d.err = fmt.Errorf("truncated: %s at offset %d", field, d.off)
}

// Reject fails the record on a check the codec above makes itself (an
// unknown tag, a list out of order). Like every failure it is sticky
// and yields to an earlier one.
func (d *RecordReader) Reject(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Version reads the leading layout version byte and fails the record
// unless it is want.
func (d *RecordReader) Version(want byte) {
	if v := d.Byte(); d.err == nil && v != want {
		d.err = fmt.Errorf("version %d, want %d", v, want)
	}
}

// Byte reads one byte.
func (d *RecordReader) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("byte")
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bool reads one byte, 1 or 0.
func (d *RecordReader) Bool() bool {
	v := d.Byte()
	if v > 1 {
		d.Reject("bool byte %d at offset %d", v, d.off-1)
	}
	return v == 1
}

// Varint reads a signed varint.
func (d *RecordReader) Varint() int64 {
	ux := d.uvarint("varint")
	return int64(ux>>1) ^ -int64(ux&1) // zigzag, as encoding/binary writes it
}

// Uvarint reads an unsigned varint.
func (d *RecordReader) Uvarint() uint64 { return d.uvarint("uvarint") }

// uvarint reads the groups of either kind of varint. One that
// overflows 64 bits is malformed, and so is a padded one — a trailing
// zero group, which encoding/binary reads and never writes.
func (d *RecordReader) uvarint(field string) uint64 {
	if d.err != nil {
		return 0
	}
	if d.off < len(d.b) && d.b[d.off] < 0x80 {
		// One group: most fields, and it cannot be padded.
		d.off++
		return uint64(d.b[d.off-1])
	}
	v, n := binary.Uvarint(d.b[d.off:])
	switch {
	case n == 0:
		d.fail(field)
		return 0
	case n < 0 || d.b[d.off+n-1] == 0:
		d.Reject("malformed %s at offset %d", field, d.off)
		return 0
	}
	d.off += n
	return v
}

// Count reads a uvarint element count for a list whose elements take at
// least minBytes each, and fails — before the caller sizes anything by
// it — if the rest of the payload could not hold that many.
func (d *RecordReader) Count(minBytes int) int {
	n := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64((len(d.b)-d.off)/minBytes) {
		d.fail("list body")
		return 0
	}
	return int(n)
}

// Int reads a signed varint as an int.
func (d *RecordReader) Int() int { return int(d.Varint()) }

// String reads a uvarint length and that many bytes.
func (d *RecordReader) String() string { return string(d.Bytes()) }

// Bytes reads a uvarint length and that many bytes, which alias the
// payload: a nested record for a reader of its own.
func (d *RecordReader) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string body")
		return nil
	}
	b := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Float64 reads 8 little-endian bytes of IEEE-754 bits.
func (d *RecordReader) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.off < 8 {
		d.fail("float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Time reads a varint of Unix nanoseconds as a UTC instant.
func (d *RecordReader) Time() time.Time {
	return time.Unix(0, d.Varint()).UTC()
}

// Instant reads what AppendInstant wrote, as a UTC instant.
func (d *RecordReader) Instant() time.Time {
	sec, nsec := d.Varint(), d.Uvarint()
	if nsec >= 1e9 {
		d.Reject("instant with %d nanoseconds at offset %d", nsec, d.off)
		return time.Time{}
	}
	return time.Unix(sec, int64(nsec)).UTC()
}
