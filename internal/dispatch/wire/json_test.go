package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// canonMsg is one of the codec's messages: json.Marshal and the
// appender encode it, json.Unmarshal and the canonical decoder read it.
type canonMsg interface {
	AppendJSON([]byte) ([]byte, error)
	DecodeCanonical([]byte) error
}

// canonMsgs are the codec's messages with every field set at least once
// and every omitempty field both set and left out.
func canonMsgs() []canonMsg {
	spec := testSpec("qft", 4)
	plain := spec
	plain.PatienceSec, plain.Privileged = 0, false
	counts := []Count{{Bits: "00", N: 3}, {Bits: "11", N: 29}}
	return []canonMsg{
		&SubmitRequest{V: Version, Key: "load/3", Spec: spec},
		&SubmitRequest{V: Version, Key: "load/4", Spec: plain},
		&SubmitRequest{},
		&SubmitResponse{V: Version, Seq: 3, Dup: true},
		&SubmitResponse{V: Version, Seq: -9},
		&SubmitResponse{V: Version, Seq: math.MinInt64},
		&SubmitResponse{V: Version, Seq: math.MaxInt64},
		&ResultsRequest{V: Version, Worker: "w1", Pull: 4, Results: []UnitResult{
			{Seq: 3, Attempt: 1, Counts: counts}, {Seq: 4, Err: "build failed"}, {Seq: 5}}},
		&ResultsRequest{V: Version, Worker: "w1", Pull: 4},
		&ResultsResponse{V: Version, Sealed: true,
			Results: []UnitAck{{Accepted: true, State: "done"}, {State: "unknown"}},
			Units:   []Unit{{Seq: 9, Spec: spec, LeaseSec: 30}, {Seq: 10, Attempt: 2, Spec: plain, LeaseSec: 0.25}}},
		&ResultsResponse{V: Version},
	}
}

// TestCanonicalMatchesEncodingJSON: the appender writes json.Marshal's
// bytes for every message, and the canonical decoder reads them, with
// or without json.Encoder's newline, to json.Unmarshal's value.
func TestCanonicalMatchesEncodingJSON(t *testing.T) {
	msgs := canonMsgs()
	for _, js := range goldenJobSpecs() {
		msgs = append(msgs, &SubmitRequest{V: Version, Key: "k", Spec: Plan(&js, ExecCaps{}, 11, 3)})
	}
	for _, m := range msgs {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := m.AppendJSON([]byte("prefix"))
		if err != nil || string(got) != "prefix"+string(want) {
			t.Fatalf("%T: appended %s, %v\n want %s", m, got, err, want)
		}
		checkCanonicalRead(t, m, want, plainJSON(want))
		checkCanonicalRead(t, m, append(want, '\n'), plainJSON(want))
	}
}

// TestCodecCoversEveryField fills every field of every message, at any
// depth, with a value omitempty keeps: a field added to a message or to
// cloud.JobSpec and not to the codec's walk shows as bytes json.Marshal
// writes and the appender does not.
func TestCodecCoversEveryField(t *testing.T) {
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.String:
			v.SetString("x")
		case reflect.Int, reflect.Int64:
			v.SetInt(7)
		case reflect.Float64:
			v.SetFloat(1.5)
		case reflect.Bool:
			v.SetBool(true)
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
			fill(v.Index(0))
		case reflect.Struct:
			if v.Type() == reflect.TypeOf(time.Time{}) {
				v.Set(reflect.ValueOf(time.Date(2021, 3, 4, 5, 6, 7, 8, time.UTC)))
				return
			}
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		default:
			t.Fatalf("no filler for %s", v.Type())
		}
	}
	for _, m := range []canonMsg{&SubmitRequest{}, &SubmitResponse{}, &ResultsRequest{}, &ResultsResponse{}} {
		fill(reflect.ValueOf(m).Elem())
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := m.AppendJSON(nil); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%T: appended\n %s, %v\njson.Marshal writes\n %s", m, got, err, want)
		}
		checkCanonicalRead(t, m, want, true)
	}
}

// plainJSON reports whether b holds no escape and nothing but
// printable ASCII: the bytes a canonical decoder must read.
func plainJSON(b []byte) bool {
	for _, c := range b {
		if c < 0x20 || c > 0x7e || c == '\\' {
			return false
		}
	}
	return true
}

// checkCanonicalRead decodes b both ways into fresh values of m's type.
// What the canonical decoder reads, json.Unmarshal and json.Decoder
// must read to the same value; must says it has to read it.
func checkCanonicalRead(t *testing.T, m canonMsg, b []byte, must bool) {
	t.Helper()
	typ := reflect.TypeOf(m).Elem()
	got := reflect.New(typ).Interface().(canonMsg)
	if err := got.DecodeCanonical(b); err != nil {
		if !errors.Is(err, ErrNotCanonical) {
			t.Fatalf("%T: %q: error %v, want ErrNotCanonical", m, b, err)
		}
		if !reflect.ValueOf(got).Elem().IsZero() {
			t.Fatalf("%T: %q: a refused body left %+v behind", m, b, got)
		}
		if must {
			t.Fatalf("%T: canonical body %q refused", m, b)
		}
		return
	}
	want := reflect.New(typ).Interface()
	if err := json.Unmarshal(b, want); err != nil {
		t.Fatalf("%T: %q read canonically, but json.Unmarshal refuses it: %v", m, b, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T: %q read as\n %+v\nbut json.Unmarshal reads\n %+v", m, b, got, want)
	}
	streamed := reflect.New(typ).Interface()
	if err := json.NewDecoder(bytes.NewReader(b)).Decode(streamed); err != nil || !reflect.DeepEqual(got, streamed) {
		t.Fatalf("%T: %q read canonically, but json.Decoder reads %+v, %v", m, b, streamed, err)
	}
}

// TestCanonicalRefusals: each body below is one edit away from a
// canonical one, and the canonical decoder refuses it whether or not
// encoding/json reads it.
func TestCanonicalRefusals(t *testing.T) {
	base := `{"v":1,"worker":"w1","results":[{"seq":3,"attempt":1,"counts":[{"bits":"01","n":2}]}],"pull":4}`
	var ok ResultsRequest
	if err := ok.DecodeCanonical([]byte(base)); err != nil {
		t.Fatalf("the base body is refused: %v", err)
	}
	for _, c := range []struct{ name, old, new string }{
		{"whitespace", `"pull":4`, `"pull": 4`},
		{"reordered keys", `"v":1,"worker":"w1"`, `"worker":"w1","v":1`},
		{"unknown key", `"pull":4`, `"pull":4,"max":2`},
		{"upper-case key", `"worker"`, `"Worker"`},
		{"escaped string", `"w1"`, `"\u00771"`},
		{"non-ASCII string", `"w1"`, `"wé"`},
		{"leading zero", `"pull":4`, `"pull":04`},
		{"fraction in an int", `"pull":4`, `"pull":4.0`},
		{"int overflow", `"pull":4`, `"pull":9223372036854775808`},
		{"int underflow", `"pull":4`, `"pull":-9223372036854775809`},
		{"twenty digits", `"pull":4`, `"pull":10000000000000000000`},
		{"null", `"worker":"w1"`, `"worker":null`},
		{"empty list", `"counts":[{"bits":"01","n":2}]`, `"counts":[]`},
		{"trailing data", `"pull":4}`, `"pull":4}x`},
		{"two newlines", `"pull":4}`, "\"pull\":4}\n\n"},
		{"truncated", `"pull":4}`, `"pull":4`},
	} {
		body := strings.Replace(base, c.old, c.new, 1)
		if body == base {
			t.Fatalf("%s: the edit does not apply", c.name)
		}
		var m ResultsRequest
		if err := m.DecodeCanonical([]byte(body)); !errors.Is(err, ErrNotCanonical) {
			t.Errorf("%s: %s read as %+v, %v", c.name, body, m, err)
		}
	}
	var spec SubmitRequest
	for _, body := range []string{
		`{"v":1,"key":"k","spec":{"submit_time":"2021-13-01T00:00:00Z"}}`,
		`{"v":1,"key":"k","spec":{"submit_time":"2021-01-01T00:00:00Z","user":"u","machine":"m","batch_size":1,"shots":1,"circuit_name":"c","width":1,"total_depth":1,"total_gate_ops":1,"cx_total":1,"mem_slots":1,"patience_sec":1e999,"exec_kind":"k","exec_width":1,"exec_batch":1,"exec_shots":1,"exec_seed":1}}`,
		`{"v":1,"key":"k","spec":{"submit_time":"2021-01-01T00:00:00Z","user":"u","machine":"m","batch_size":1,"shots":1,"circuit_name":"c","width":1,"total_depth":1,"total_gate_ops":1,"cx_total":1,"mem_slots":1,"patience_sec":1.,"exec_kind":"k","exec_width":1,"exec_batch":1,"exec_shots":1,"exec_seed":1}}`,
	} {
		if err := spec.DecodeCanonical([]byte(body)); !errors.Is(err, ErrNotCanonical) {
			t.Errorf("%s read as %+v, %v", body, spec, err)
		}
	}
}

// TestAppendRefusesWhatMarshalRefuses: a float encoding/json cannot
// write and a time outside years 0-9999 fail the appender too.
func TestAppendRefusesWhatMarshalRefuses(t *testing.T) {
	for _, spec := range []Spec{
		{TracePlane: TracePlane{PatienceSec: math.NaN()}},
		{TracePlane: TracePlane{PatienceSec: math.Inf(-1)}},
		{TracePlane: TracePlane{SubmitTime: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}},
		{TracePlane: TracePlane{SubmitTime: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC)}},
	} {
		m := &ResultsResponse{V: Version, Units: []Unit{{Spec: spec}}}
		if _, err := json.Marshal(m); err == nil {
			t.Fatalf("json.Marshal accepts %+v", spec)
		}
		if b, err := m.AppendJSON(nil); err == nil {
			t.Errorf("%+v appended as %s", spec, b)
		}
	}
}

// fuzzSource deals values out of fuzz input, zeros once it runs dry.
type fuzzSource struct{ b []byte }

func (s *fuzzSource) u64() uint64 {
	var w [8]byte
	s.b = s.b[copy(w[:], s.b):]
	return binary.LittleEndian.Uint64(w[:])
}

func (s *fuzzSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// str is a short string: mostly plain, sometimes any bytes.
func (s *fuzzSource) str() string {
	n := int(s.byte() % 8)
	if n > len(s.b) {
		n = len(s.b)
	}
	raw := s.b[:n]
	s.b = s.b[n:]
	if n > 0 && raw[0]&1 == 0 {
		plain := make([]byte, n)
		for i, c := range raw {
			plain[i] = 'a' + c%26
		}
		return string(plain)
	}
	return string(raw)
}

func (s *fuzzSource) int() int { return int(int64(s.u64()) >> (s.byte() % 64)) }

func (s *fuzzSource) float() float64 {
	if s.byte()%2 == 0 {
		return float64(int64(s.u64()) >> 40)
	}
	return math.Float64frombits(s.u64())
}

func (s *fuzzSource) time() time.Time {
	zone := time.UTC
	if off := int(int8(s.byte())); off != 0 {
		zone = time.FixedZone("", off*15*60)
	}
	sec := int64(s.u64() >> (s.byte() % 64))
	return time.Unix(sec-62135596800, int64(s.u64()%1e9)).In(zone)
}

func (s *fuzzSource) spec() Spec {
	return Spec{
		TracePlane: TracePlane{
			SubmitTime: s.time(), User: s.str(), Machine: s.str(),
			BatchSize: s.int(), Shots: s.int(), CircuitName: s.str(),
			Width: s.int(), TotalDepth: s.int(), TotalGateOps: s.int(), CXTotal: s.int(), MemSlots: s.int(),
			PatienceSec: s.float(), Privileged: s.byte()%2 == 0,
		},
		ExecKind: s.str(), ExecWidth: s.int(), ExecBatch: s.int(), ExecShots: s.int(), ExecSeed: int64(s.u64()),
	}
}

// msg builds one message from the input, its type the first byte's
// choice.
func (s *fuzzSource) msg() canonMsg {
	switch s.byte() % 4 {
	case 0:
		return &SubmitRequest{V: s.int(), Key: s.str(), Spec: s.spec()}
	case 1:
		return &SubmitResponse{V: s.int(), Seq: int64(s.u64()), Dup: s.byte()%2 == 0}
	case 2:
		m := &ResultsRequest{V: s.int(), Worker: s.str(), Results: make([]UnitResult, s.byte()%3), Pull: s.int()}
		for i := range m.Results {
			m.Results[i] = UnitResult{Seq: int64(s.u64()), Attempt: s.int(), Err: s.str()}
			for n := s.byte() % 3; n > 0; n-- {
				m.Results[i].Counts = append(m.Results[i].Counts, Count{Bits: s.str(), N: s.int()})
			}
		}
		return m
	}
	m := &ResultsResponse{V: s.int(), Results: make([]UnitAck, s.byte()%3), Sealed: s.byte()%2 == 0, Units: make([]Unit, s.byte()%3)}
	for i := range m.Results {
		m.Results[i] = UnitAck{Accepted: s.byte()%2 == 0, State: s.str()}
	}
	for i := range m.Units {
		m.Units[i] = Unit{Seq: int64(s.u64()), Attempt: s.int(), Spec: s.spec(), LeaseSec: s.float()}
	}
	return m
}

// FuzzWireJSON checks the canonical codec against encoding/json two
// ways. Read as a body, the input must decode, for each message type,
// to what json.Unmarshal and json.Decoder read from it whenever the
// canonical decoder accepts it; so must the body of the next paragraph
// with one byte edited. Read as a source of values, it builds a
// message: the appender must write json.Marshal's bytes or refuse with
// it, and the canonical decoder must read back every such body that is
// plain printable ASCII.
func FuzzWireJSON(f *testing.F) {
	for _, m := range canonMsgs() {
		b, _ := json.Marshal(m)
		f.Add(b)
		f.Add(append(b, '\n'))
	}
	f.Add([]byte(`{"v":1,"seq":01}`))
	f.Add([]byte(`{"seq":1,"v":2}`))
	f.Add([]byte(`{"v":1,"seq":2}{}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, m := range []canonMsg{&SubmitRequest{}, &SubmitResponse{}, &ResultsRequest{}, &ResultsResponse{}} {
			checkCanonicalRead(t, m, b, false)
		}
		m := (&fuzzSource{b: b}).msg()
		want, werr := json.Marshal(m)
		got, gerr := m.AppendJSON(nil)
		if (werr != nil) != (gerr != nil) || werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("%T %+v: appended %s, %v; json.Marshal writes %s, %v", m, m, got, gerr, want, werr)
		}
		if werr != nil {
			return
		}
		checkCanonicalRead(t, m, got, plainJSON(got))
		// A body one byte away from canonical, inserted or replaced where
		// the input's last three bytes say, is where a decoder that reads
		// too much shows it: a leading zero, trailing data, a renamed key.
		if n := len(b); n >= 3 {
			at, c := int(binary.LittleEndian.Uint16(b[n-3:])), b[n-1]
			checkCanonicalRead(t, m, slices.Insert(bytes.Clone(got), at%(len(got)+1), c), false)
			replaced := bytes.Clone(got)
			replaced[at%len(got)] = c
			checkCanonicalRead(t, m, replaced, false)
		}
	})
}

// BenchmarkSubmitBody times one POST /v1/submit body each way: the
// canonical codec against encoding/json, to bytes and back.
func BenchmarkSubmitBody(b *testing.B) {
	req := SubmitRequest{V: Version, Key: "job/3", Spec: testSpec("qft", 4)}
	body, _ := json.Marshal(req)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			_, _ = req.AppendJSON(make([]byte, 0, 512))
		}
	})
	b.Run("marshal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			_, _ = json.Marshal(req)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var m SubmitRequest
			_ = m.DecodeCanonical(body)
		}
	})
	b.Run("unmarshal", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var m SubmitRequest
			_ = json.Unmarshal(body, &m)
		}
	})
}
