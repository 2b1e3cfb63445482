package journal

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"time"
)

// TestRecordReaderOneEncoding: the reader takes the bytes the Append
// functions write and no other spelling of the same value, so a codec
// built on it decodes nothing that re-encodes differently.
func TestRecordReaderOneEncoding(t *testing.T) {
	at := time.Date(1600, 2, 29, 1, 2, 3, 4, time.FixedZone("", -5*3600))
	buf := binary.AppendVarint(nil, -300)
	buf = binary.AppendUvarint(buf, 300)
	buf = AppendBool(buf, true)
	buf = AppendInstant(buf, at)
	buf = AppendInstant(buf, time.Time{})
	buf = binary.AppendUvarint(buf, 2) // a list of two strings
	buf = AppendString(AppendString(buf, ""), "x")
	d := NewRecordReader(buf)
	if v, u, b := d.Varint(), d.Uvarint(), d.Bool(); v != -300 || u != 300 || !b {
		t.Errorf("read %d, %d, %v", v, u, b)
	}
	if got, zero := d.Instant(), d.Instant(); !got.Equal(at) || got.Location() != time.UTC || !zero.IsZero() {
		t.Errorf("instants %v and %v, want %v and the zero Time", got, zero, at)
	}
	if n := d.Count(1); n != 2 || d.String() != "" || d.String() != "x" {
		t.Errorf("list of %d", n)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}

	for _, v := range []int64{0, -1, 1, 63, -64, 64, -65, 1 << 40, math.MaxInt64, math.MinInt64} {
		if got := NewRecordReader(binary.AppendVarint(nil, v)).Varint(); got != v {
			t.Errorf("varint %d read back as %d", v, got)
		}
		if got := NewRecordReader(binary.AppendUvarint(nil, uint64(v))).Uvarint(); got != uint64(v) {
			t.Errorf("uvarint %d read back as %d", uint64(v), got)
		}
	}

	for name, c := range map[string]struct {
		b    []byte
		read func(*RecordReader)
		want string
	}{
		"padded varint":    {[]byte{0x82, 0x00}, func(d *RecordReader) { d.Varint() }, "malformed varint at offset 0"},
		"padded uvarint":   {[]byte{0x80, 0x80, 0x00}, func(d *RecordReader) { d.Uvarint() }, "malformed uvarint at offset 0"},
		"overlong varint":  {[]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, func(d *RecordReader) { d.Varint() }, "malformed varint"},
		"short varint":     {[]byte{0xff, 0xff}, func(d *RecordReader) { d.Varint() }, "truncated: varint at offset 0"},
		"bool byte 2":      {[]byte{2}, func(d *RecordReader) { d.Bool() }, "bool byte 2"},
		"1e9 nanoseconds":  {binary.AppendUvarint([]byte{0}, 1e9), func(d *RecordReader) { d.Instant() }, "1000000000 nanoseconds"},
		"count past end":   {[]byte{3, 0, 0, 0, 0, 0}, func(d *RecordReader) { d.Count(2) }, "truncated: list body"},
		"codec's own":      {nil, func(d *RecordReader) { d.Reject("tag %d", 9) }, "tag 9"},
		"first error wins": {nil, func(d *RecordReader) { d.Byte(); d.Reject("tag %d", 9) }, "truncated: byte"},
	} {
		d := NewRecordReader(c.b)
		c.read(d)
		if d.Err() == nil || d.Err() != d.Finish() || !strings.Contains(d.Err().Error(), c.want) {
			t.Errorf("%s: error %v, want %q", name, d.Err(), c.want)
		}
	}
	if d := NewRecordReader([]byte{3, 0, 0, 0, 0, 0, 0}); d.Count(2) != 3 || d.Err() != nil {
		t.Errorf("a count of 3 with 6 bytes left: %v", d.Err())
	}
}
