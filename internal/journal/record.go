package journal

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// Record payload primitives: the field encodings the packages above
// the journal build their record codecs from (the trace job record,
// the cloud submit record). Integers are varints, strings are a
// uvarint length and the bytes, floats are 8 little-endian bytes of
// the IEEE-754 bits, bools are one byte, and instants are varint UTC
// Unix nanoseconds (binary.AppendVarint of t.UnixNano()).

// AppendString appends s as a uvarint length followed by its bytes.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
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

// fail records the first malformed field; every caller has already
// returned early on a set error.
func (d *RecordReader) fail(field string) {
	d.err = fmt.Errorf("truncated: %s at offset %d", field, d.off)
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

// Bool reads one byte; any non-zero value is true.
func (d *RecordReader) Bool() bool { return d.Byte() != 0 }

// Varint reads a signed varint.
func (d *RecordReader) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("varint")
		return 0
	}
	d.off += n
	return v
}

// Uvarint reads an unsigned varint.
func (d *RecordReader) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("uvarint")
		return 0
	}
	d.off += n
	return v
}

// Int reads a signed varint as an int.
func (d *RecordReader) Int() int { return int(d.Varint()) }

// String reads a uvarint length and that many bytes.
func (d *RecordReader) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("string body")
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
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
