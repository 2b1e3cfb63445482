package wire

import (
	"encoding/json"
	"errors"
	"math"
	"strconv"
	"time"
)

// The canonical JSON codec of the dispatcher's hot messages: the
// submit (POST /v1/submit) and exchange (POST /v1/results) requests and
// responses, with the Spec, Unit, UnitResult, UnitAck and Count values
// inside them. Each message's field list is written once, as a walk a
// codec runs in either direction:
//
//   - appending, it writes exactly the bytes json.Marshal writes for
//     the value (a server adds json.Encoder's trailing newline), and
//     refuses what json.Marshal refuses: a NaN or infinite float, a time
//     RFC 3339 cannot hold (a year outside 0-9999, a zone offset of a
//     day or more);
//   - decoding, it reads only the canonical form of those bytes — keys
//     in declaration order, an omitempty field absent or present, no
//     whitespace, strings of printable ASCII with no escape, numbers of
//     the JSON grammar, an optional trailing newline — and reports
//     ErrNotCanonical for anything else.
//
// What it reads, encoding/json reads to the same value. What it does
// not read, its callers give to encoding/json unchanged, so every other
// body keeps encoding/json's value, status and error text.

// ErrNotCanonical is a canonical decoder's answer for any body that is
// not in the canonical form: encoding/json may still read it.
var ErrNotCanonical = errors.New("wire: not canonical JSON")

// AppendJSON appends json.Marshal's encoding of m.
func (m *SubmitRequest) AppendJSON(b []byte) ([]byte, error) {
	c := codec{out: b}
	c.submitRequest(m)
	return c.out, c.err
}

// DecodeCanonical sets m to the canonical encoding in data, or to the
// zero value, returning ErrNotCanonical.
func (m *SubmitRequest) DecodeCanonical(data []byte) error {
	c := decoder(data, m)
	c.submitRequest(m)
	return finish(&c, m)
}

// AppendJSON appends json.Marshal's encoding of m.
func (m *SubmitResponse) AppendJSON(b []byte) ([]byte, error) {
	c := codec{out: b}
	c.submitResponse(m)
	return c.out, c.err
}

// DecodeCanonical sets m to the canonical encoding in data, or to the
// zero value, returning ErrNotCanonical.
func (m *SubmitResponse) DecodeCanonical(data []byte) error {
	c := decoder(data, m)
	c.submitResponse(m)
	return finish(&c, m)
}

// AppendJSON appends json.Marshal's encoding of m.
func (m *ResultsRequest) AppendJSON(b []byte) ([]byte, error) {
	c := codec{out: b}
	c.resultsRequest(m)
	return c.out, c.err
}

// DecodeCanonical sets m to the canonical encoding in data, or to the
// zero value, returning ErrNotCanonical.
func (m *ResultsRequest) DecodeCanonical(data []byte) error {
	c := decoder(data, m)
	c.resultsRequest(m)
	return finish(&c, m)
}

// AppendJSON appends json.Marshal's encoding of m.
func (m *ResultsResponse) AppendJSON(b []byte) ([]byte, error) {
	c := codec{out: b}
	c.resultsResponse(m)
	return c.out, c.err
}

// DecodeCanonical sets m to the canonical encoding in data, or to the
// zero value, returning ErrNotCanonical.
func (m *ResultsResponse) DecodeCanonical(data []byte) error {
	c := decoder(data, m)
	c.resultsResponse(m)
	return finish(&c, m)
}

// decoder zeroes m and returns a codec that reads data into it.
func decoder[T any](data []byte, m *T) codec {
	var zero T
	*m = zero
	return codec{dec: true, in: data}
}

// finish ends a decode into m: unless all of the input was read, m is
// zeroed again.
func finish[T any](c *codec, m *T) error {
	if c.err == nil {
		c.take("\n")
		if len(c.in) != 0 {
			c.fail()
		}
	}
	if c.err != nil {
		var zero T
		*m = zero
	}
	return c.err
}

// codec walks a message's fields in declaration order, appending each
// to out or, when dec is set, reading it from in. err is sticky: the
// value json.Marshal refuses, or ErrNotCanonical.
type codec struct {
	dec bool
	in  []byte
	out []byte
	err error
}

// --- the messages --------------------------------------------------------

func (c *codec) submitRequest(m *SubmitRequest) {
	c.int(`{"v":`, &m.V)
	c.str(`,"key":`, &m.Key)
	c.key(`,"spec":`)
	c.spec(&m.Spec)
	c.key(`}`)
}

func (c *codec) submitResponse(m *SubmitResponse) {
	c.int(`{"v":`, &m.V)
	c.int64(`,"seq":`, &m.Seq)
	if c.has(`,"dup":`, m.Dup) {
		c.bool(&m.Dup)
	}
	c.key(`}`)
}

func (c *codec) resultsRequest(m *ResultsRequest) {
	c.int(`{"v":`, &m.V)
	c.str(`,"worker":`, &m.Worker)
	if c.has(`,"results":`, len(m.Results) > 0) {
		for i := 0; c.next(i, len(m.Results)); i++ {
			c.unitResult(at(c, &m.Results, i))
		}
	}
	c.int(`,"pull":`, &m.Pull)
	c.key(`}`)
}

func (c *codec) resultsResponse(m *ResultsResponse) {
	c.int(`{"v":`, &m.V)
	if c.has(`,"results":`, len(m.Results) > 0) {
		for i := 0; c.next(i, len(m.Results)); i++ {
			c.unitAck(at(c, &m.Results, i))
		}
	}
	c.key(`,"sealed":`)
	c.bool(&m.Sealed)
	if c.has(`,"units":`, len(m.Units) > 0) {
		for i := 0; c.next(i, len(m.Units)); i++ {
			c.unit(at(c, &m.Units, i))
		}
	}
	c.key(`}`)
}

func (c *codec) spec(s *Spec) {
	c.key(`{"submit_time":`)
	c.time(&s.SubmitTime)
	c.str(`,"user":`, &s.User)
	c.str(`,"machine":`, &s.Machine)
	c.int(`,"batch_size":`, &s.BatchSize)
	c.int(`,"shots":`, &s.Shots)
	c.str(`,"circuit_name":`, &s.CircuitName)
	c.int(`,"width":`, &s.Width)
	c.int(`,"total_depth":`, &s.TotalDepth)
	c.int(`,"total_gate_ops":`, &s.TotalGateOps)
	c.int(`,"cx_total":`, &s.CXTotal)
	c.int(`,"mem_slots":`, &s.MemSlots)
	// omitempty drops -0 as well as 0: both compare equal to zero.
	if c.has(`,"patience_sec":`, s.PatienceSec != 0) {
		c.float(&s.PatienceSec)
	}
	if c.has(`,"privileged":`, s.Privileged) {
		c.bool(&s.Privileged)
	}
	c.str(`,"exec_kind":`, &s.ExecKind)
	c.int(`,"exec_width":`, &s.ExecWidth)
	c.int(`,"exec_batch":`, &s.ExecBatch)
	c.int(`,"exec_shots":`, &s.ExecShots)
	c.int64(`,"exec_seed":`, &s.ExecSeed)
	c.key(`}`)
}

func (c *codec) unit(u *Unit) {
	c.int64(`{"seq":`, &u.Seq)
	c.int(`,"attempt":`, &u.Attempt)
	c.key(`,"spec":`)
	c.spec(&u.Spec)
	c.key(`,"lease_sec":`)
	c.float(&u.LeaseSec)
	c.key(`}`)
}

func (c *codec) unitResult(u *UnitResult) {
	c.int64(`{"seq":`, &u.Seq)
	c.int(`,"attempt":`, &u.Attempt)
	if c.has(`,"counts":`, len(u.Counts) > 0) {
		for i := 0; c.next(i, len(u.Counts)); i++ {
			c.count(at(c, &u.Counts, i))
		}
	}
	if c.has(`,"err":`, u.Err != "") {
		c.string(&u.Err)
	}
	c.key(`}`)
}

func (c *codec) unitAck(a *UnitAck) {
	c.key(`{"accepted":`)
	c.bool(&a.Accepted)
	c.str(`,"state":`, &a.State)
	c.key(`}`)
}

func (c *codec) count(n *Count) {
	c.str(`{"bits":`, &n.Bits)
	c.int(`,"n":`, &n.N)
	c.key(`}`)
}

// next walks a JSON array of at least one element (omitempty leaves
// an empty slice out, so "[]" is not canonical): it writes or reads
// the punctuation before element i, and reports whether there is one.
// Appending, the array has n elements; decoding, as many as the input.
func (c *codec) next(i, n int) bool {
	if !c.dec {
		switch {
		case i == n:
			c.out = append(c.out, ']')
			return false
		case i == 0:
			c.out = append(c.out, '[')
		default:
			c.out = append(c.out, ',')
		}
		return true
	}
	if i == 0 {
		c.key("[")
	} else if !c.take(",") {
		c.key("]")
		return false
	}
	return c.err == nil
}

// at returns element i of the array next walks, appending it when
// decoding.
func at[T any](c *codec, p *[]T, i int) *T {
	if c.dec {
		var zero T
		*p = append(*p, zero)
	}
	return &(*p)[i]
}

// --- the values ----------------------------------------------------------

// key writes or reads k, a key with the punctuation around it.
func (c *codec) key(k string) {
	if !c.dec {
		c.out = append(c.out, k...)
	} else if c.err == nil && !c.take(k) {
		c.fail()
	}
}

// has reports whether an omitempty field is there: when appending, it
// is if present says so, and its key is written; when decoding, it is
// if its key comes next, and the key is read.
func (c *codec) has(k string, present bool) bool {
	if !c.dec {
		if present {
			c.out = append(c.out, k...)
		}
		return present
	}
	return c.err == nil && c.take(k)
}

// take reads s if the input starts with it.
func (c *codec) take(s string) bool {
	if len(c.in) >= len(s) && string(c.in[:len(s)]) == s {
		c.in = c.in[len(s):]
		return true
	}
	return false
}

func (c *codec) fail() { c.err = ErrNotCanonical }

func (c *codec) str(k string, p *string) {
	c.key(k)
	c.string(p)
}

func (c *codec) int(k string, p *int) {
	v := int64(*p)
	c.int64(k, &v)
	if c.dec && c.err == nil {
		if *p = int(v); int64(*p) != v {
			c.fail()
		}
	}
}

func (c *codec) string(p *string) {
	if !c.dec {
		c.out = appendString(c.out, *p)
		return
	}
	if q := c.quoted(); q != nil {
		*p = string(q[1 : len(q)-1])
	}
}

// quoted reads a string of printable ASCII with no escape and returns
// it with its quotes.
func (c *codec) quoted() []byte {
	if c.err != nil {
		return nil
	}
	in := c.in
	if len(in) > 0 && in[0] == '"' {
		for i := 1; i < len(in); i++ {
			switch b := in[i]; {
			case b == '"':
				c.in = in[i+1:]
				return in[:i+1]
			case b < 0x20 || b > 0x7e || b == '\\':
				c.fail()
				return nil
			}
		}
	}
	c.fail()
	return nil
}

// appendString appends s as json.Marshal quotes it: a string that
// needs no escape as it is, any other through json.Marshal.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

func (c *codec) int64(k string, p *int64) {
	c.key(k)
	if !c.dec {
		c.out = strconv.AppendInt(c.out, *p, 10)
		return
	}
	if c.err != nil {
		return
	}
	in := c.in
	i := intLen(in)
	if i == 0 {
		c.fail()
		return
	}
	num, neg := in[:i], in[0] == '-'
	if neg {
		num = num[1:]
	}
	// 19 digits cannot overflow a uint64; 20 cannot fit an int64.
	if len(num) > 19 {
		c.fail()
		return
	}
	var u uint64
	for _, d := range num {
		u = u*10 + uint64(d-'0')
	}
	if u > math.MaxInt64 && !(neg && u == math.MaxInt64+1) {
		c.fail()
		return
	}
	if neg {
		u = -u
	}
	*p = int64(u)
	c.in = in[i:]
}

// intLen returns the length of the JSON integer -?(0|[1-9][0-9]*) at
// the start of b, or 0.
func intLen(b []byte) int {
	i := 0
	if len(b) > 0 && b[0] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		return i + 1
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		return digits(b, i)
	}
	return 0
}

// digits returns the index past the run of digits starting at i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (c *codec) bool(p *bool) {
	switch {
	case !c.dec && *p:
		c.out = append(c.out, "true"...)
	case !c.dec:
		c.out = append(c.out, "false"...)
	case c.err != nil:
	case c.take("true"):
		*p = true
	case c.take("false"):
		*p = false
	default:
		c.fail()
	}
}

// float is encoding/json's float64 form: the shortest decimal that
// reads back, in exponent form below 1e-6 and from 1e21, with the
// exponent's leading zero dropped.
func (c *codec) float(p *float64) {
	if c.dec {
		c.decodeFloat(p)
		return
	}
	f := *p
	if math.IsInf(f, 0) || math.IsNaN(f) {
		c.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(c.out, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	c.out = b
}

func (c *codec) decodeFloat(p *float64) {
	if c.err != nil {
		return
	}
	in := c.in
	i := intLen(in)
	if i == 0 {
		c.fail()
		return
	}
	if i < len(in) && in[i] == '.' {
		if j := digits(in, i+1); j > i+1 {
			i = j
		} else {
			c.fail()
			return
		}
	}
	if i < len(in) && (in[i] == 'e' || in[i] == 'E') {
		j := i + 1
		if j < len(in) && (in[j] == '+' || in[j] == '-') {
			j++
		}
		if k := digits(in, j); k > j {
			i = k
		} else {
			c.fail()
			return
		}
	}
	v, err := strconv.ParseFloat(string(in[:i]), 64)
	if err != nil {
		c.fail()
		return
	}
	*p = v
	c.in = in[i:]
}

// time is encoding/json's form of a time.Time: its MarshalJSON writes
// the string, its UnmarshalJSON reads it.
func (c *codec) time(p *time.Time) {
	if !c.dec {
		b, err := p.AppendText(append(c.out, '"'))
		if err != nil {
			c.err = err
			return
		}
		c.out = append(b, '"')
		return
	}
	if q := c.quoted(); q != nil && p.UnmarshalJSON(q) != nil {
		c.fail()
	}
}
