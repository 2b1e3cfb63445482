package dispatch

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"qcloud/internal/dispatch/wire"
)

func newTestDispatcher(t *testing.T) *Dispatcher {
	t.Helper()
	d, err := New(Config{Dir: t.TempDir(), Seed: 11, Lease: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// post drives the handler directly (no socket), so a refused body is
// always answered rather than sometimes surfacing as a broken pipe.
func post(t *testing.T, h http.Handler, path string, body io.Reader, resp any) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
		t.Fatalf("%s answered %d with a body that is not JSON: %q", path, rec.Code, rec.Body.String())
	}
	return rec.Code
}

func postJSON(t *testing.T, h http.Handler, path string, req, resp any) int {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return post(t, h, path, bytes.NewReader(raw), resp)
}

// zeros is an endless run of the character 0.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestHTTPRefusesBadBodies: a body over the limit, malformed JSON, a
// wrong protocol version and a valid request followed by trailing data
// are each answered with the matching status and a GenericResponse
// naming the problem, and change nothing.
func TestHTTPRefusesBadBodies(t *testing.T) {
	d := newTestDispatcher(t)
	h := d.Handler()
	spec, err := json.Marshal(testPlans(t, 3, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	// One valid request per route, in an order a fresh dispatcher
	// answers each with 200: the submit makes the task the rest act on.
	valid := []struct{ path, body string }{
		{"/v1/submit", `{"v":1,"key":"k","spec":` + string(spec) + `}`},
		{"/v1/results", `{"v":1,"worker":"w","pull":1}`},
		{"/v1/pull", `{"v":1,"worker":"w","max":1}`},
		{"/v1/result", `{"v":1,"worker":"w","seq":0,"counts":[{"bits":"0","n":1}]}`},
		{"/v1/cancel", `{"v":1,"key":"k"}`},
		{"/v1/heartbeat", `{"v":1,"worker":"w","seqs":[0]}`},
		{"/v1/seal", `{"v":1}`},
		{"/v1/register", `{"v":1,"name":"w"}`},
	}
	fresh := newTestDispatcher(t).Handler()
	for _, v := range valid {
		var resp wire.GenericResponse
		if code := post(t, fresh, v.path, strings.NewReader(v.body), &resp); code != http.StatusOK {
			t.Fatalf("%s answered the valid body %s with %d %+v", v.path, v.body, code, resp)
		}
		if code := post(t, h, v.path, strings.NewReader(v.body+` {"v":1}`), &resp); code != http.StatusBadRequest || resp.V != wire.Version || !strings.Contains(resp.Err, "after top-level value") {
			t.Errorf("%s, trailing data: answered %d %+v, want 400 and an error", v.path, code, resp)
		}
	}
	bodies := []struct {
		name string
		body func() io.Reader
		code int
	}{
		{"oversized", func() io.Reader {
			// A valid request but for its size: refused at the limit.
			return io.MultiReader(strings.NewReader(`{"v":1,"worker":"w","key":"`), io.LimitReader(zeros{}, maxBodyBytes), strings.NewReader(`"}`))
		}, http.StatusRequestEntityTooLarge},
		{"malformed", func() io.Reader { return strings.NewReader(`{"v":1,"worker":`) }, http.StatusBadRequest},
		{"not an object", func() io.Reader { return strings.NewReader(`[1,2,3]`) }, http.StatusBadRequest},
		{"wrong version", func() io.Reader { return strings.NewReader(`{"v":2,"worker":"w","pull":1,"key":"k"}`) }, http.StatusBadRequest},
		{"no version", func() io.Reader { return strings.NewReader(`{"worker":"w","pull":1,"key":"k"}`) }, http.StatusBadRequest},
	}
	for _, path := range []string{"/v1/submit", "/v1/results", "/v1/pull", "/v1/result", "/v1/cancel", "/v1/heartbeat", "/v1/seal", "/v1/register"} {
		for _, b := range bodies {
			if b.name == "oversized" && path != "/v1/results" {
				continue // decode is shared; reading 64 MiB once is enough
			}
			var resp wire.GenericResponse
			if code := post(t, h, path, b.body(), &resp); code != b.code || resp.V != wire.Version || resp.Err == "" {
				t.Errorf("%s, %s body: answered %d %+v, want %d and an error", path, b.name, code, resp, b.code)
			}
		}
	}
	if st := d.Stats(); st.Jobs != 0 || st.Sealed || len(st.Workers) != 0 || d.q.submits.Records() != 0 {
		t.Errorf("refused requests changed state: %+v, %d submit records", st, d.q.submits.Records())
	}
}

// TestSlowBodyTimesOut: a client that sends its headers and part of a
// submit body, then stalls, is answered 408 soon after bodyTimeout and
// its connection closed, with nothing enqueued; a request on another
// connection is served meanwhile.
func TestSlowBodyTimesOut(t *testing.T) {
	timeout := bodyTimeout
	t.Cleanup(func() { bodyTimeout = timeout })
	bodyTimeout = time.Second

	d := newTestDispatcher(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	plans := testPlans(t, 3, 12)
	body, err := json.Marshal(wire.SubmitRequest{V: wire.Version, Key: "k/slow", Spec: plans[0]})
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	head := fmt.Sprintf("POST /v1/submit HTTP/1.1\r\nHost: dispatcher\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	if _, err := io.WriteString(conn, head+string(body[:len(body)/2])); err != nil {
		t.Fatal(err)
	}

	cl := &Client{Server: srv.URL}
	if resp, err := cl.Submit("k/0", plans[1]); err != nil || resp.Seq != 0 {
		t.Fatalf("a submit beside the stalled one answered %+v, %v", resp, err)
	}
	if waited := time.Since(start); waited >= bodyTimeout {
		t.Fatalf("the submit beside the stalled one took %v, past the %v body deadline", waited, bodyTimeout)
	}

	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	rd := bufio.NewReader(conn)
	res, err := http.ReadResponse(rd, nil)
	if err != nil {
		t.Fatalf("no answer to the stalled body: %v", err)
	}
	waited := time.Since(start)
	var ge wire.GenericResponse
	if err := json.NewDecoder(res.Body).Decode(&ge); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusRequestTimeout || ge.Err != "bad request body: not received in time" {
		t.Fatalf("the stalled body was answered %d %+v, want 408", res.StatusCode, ge)
	}
	if waited < bodyTimeout || waited > bodyTimeout+5*time.Second {
		t.Errorf("the 408 came %v after the headers; the body deadline is %v", waited, bodyTimeout)
	}
	if _, err := rd.ReadByte(); err != io.EOF {
		t.Errorf("after the 408 the connection read %v, want it closed", err)
	}
	if st := d.Stats(); st.Jobs != 1 || d.q.submits.Records() != 1 {
		t.Errorf("after the stalled submit: %+v, %d submit records; want only the other one", st, d.q.submits.Records())
	}
}

// TestReadBodySizing: readBody returns io.ReadAll's bytes and error
// whatever length the sender declares, allocates a body that matches
// its declaration once, and takes no more than preallocBytes on the
// word of a sender that declares more than it sends.
func TestReadBodySizing(t *testing.T) {
	body := bytes.Repeat([]byte(`{"seq":1,"n":2}`), 5000) // 75 KB, a large exchange
	for _, c := range []struct {
		name     string
		body     []byte
		declared int64
		allocs   float64
		maxCap   int
	}{
		{"declared exactly", body, int64(len(body)), 1, len(body) + 1},
		{"declared too high", body[:10], 1 << 40, 1, preallocBytes},
		{"declared too low", body, 10, -1, 2 * len(body)},
		{"not declared", body, -1, -1, 2 * len(body)},
		{"empty", nil, 0, 1, 512},
	} {
		got, err := readBody(bytes.NewReader(c.body), c.declared)
		if err != nil || !bytes.Equal(got, c.body) {
			t.Errorf("%s: read %d bytes, %v; want the %d sent", c.name, len(got), err, len(c.body))
		}
		if cap(got) > c.maxCap {
			t.Errorf("%s: %d bytes sent, a buffer of %d; want at most %d", c.name, len(c.body), cap(got), c.maxCap)
		}
		if c.allocs >= 0 {
			rd := bytes.NewReader(nil)
			if a := testing.AllocsPerRun(10, func() { rd.Reset(c.body); _, _ = readBody(rd, c.declared) }); a != c.allocs {
				t.Errorf("%s: %v allocations, want %v", c.name, a, c.allocs)
			}
		}
	}
	broken := errors.New("connection reset")
	r := io.MultiReader(bytes.NewReader(body[:100]), iotest.ErrReader(broken))
	if got, err := readBody(r, int64(len(body))); err != broken || !bytes.Equal(got, body[:100]) {
		t.Errorf("a body cut by an error read %d bytes, %v; want the 100 sent and the error", len(got), err)
	}
}

// TestMarshalCopiesOnce: a large appender message is copied out of the
// pooled scratch buffer once, at about its size, not grown by doubling.
func TestMarshalCopiesOnce(t *testing.T) {
	counts := make([]wire.Count, 4000)
	for i := range counts {
		counts[i] = wire.Count{Bits: fmt.Sprintf("%012b", i), N: i}
	}
	req := &wire.ResultsRequest{V: wire.Version, Worker: "w", Results: []wire.UnitResult{{Seq: 1, Counts: counts}}, Pull: 2}
	want, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := marshal(req)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("marshal: %v; the bytes differ from json.Marshal's", err)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			_, _ = marshal(req)
		}
	})
	if per := res.AllocedBytesPerOp(); per > int64(len(want))+int64(len(want))/4 {
		t.Errorf("marshal of a %d-byte message allocates %d bytes", len(want), per)
	}
}

// TestDeclaredLengthMismatch posts submit bodies over a socket whose
// Content-Length is wrong. One that declares more than it sends is
// answered 400 when the client stops sending, one that declares less is
// read to its declared length and answered 400, one that declares and
// sends more than the limit is answered 413, each with the error body
// decode has always given, and none enqueues anything.
func TestDeclaredLengthMismatch(t *testing.T) {
	d := newTestDispatcher(t)
	srv := httptest.NewServer(d.Handler())
	defer srv.Close()
	body, err := json.Marshal(wire.SubmitRequest{V: wire.Version, Key: "k/0", Spec: testPlans(t, 3, 1)[0]})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		declared int64
		body     io.Reader
		code     int
		answer   string
	}{
		{"declared too high", int64(len(body)) + 100, bytes.NewReader(body), http.StatusBadRequest,
			`{"v":1,"err":"bad request body: unexpected EOF"}`},
		{"declared far too high", 1 << 40, bytes.NewReader(body), http.StatusBadRequest,
			`{"v":1,"err":"bad request body: unexpected EOF"}`},
		{"declared too low", int64(len(body)) - 10, bytes.NewReader(body), http.StatusBadRequest,
			`{"v":1,"err":"bad request body: unexpected end of JSON input"}`},
		{"declared and sent past the limit", maxBodyBytes + 1, io.LimitReader(zeros{}, maxBodyBytes+1), http.StatusRequestEntityTooLarge,
			`{"v":1,"err":"bad request body: http: request body too large"}`},
	} {
		conn, err := net.Dial("tcp", srv.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
		head := fmt.Sprintf("POST /v1/submit HTTP/1.1\r\nHost: dispatcher\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", c.declared)
		go func() {
			// The server may answer and close before the whole body
			// is written; the write error is then expected.
			_, _ = io.Copy(conn, io.MultiReader(strings.NewReader(head), c.body))
			_ = conn.(*net.TCPConn).CloseWrite()
		}()
		res, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("%s: no answer: %v", c.name, err)
		}
		answer, _ := io.ReadAll(res.Body)
		res.Body.Close()
		conn.Close()
		if res.StatusCode != c.code || string(answer) != c.answer+"\n" {
			t.Errorf("%s: answered %d %s, want %d %s", c.name, res.StatusCode, answer, c.code, c.answer)
		}
	}
	if st := d.Stats(); st.Jobs != 0 || d.q.submits.Records() != 0 {
		t.Errorf("refused bodies changed state: %+v, %d submit records", st, d.q.submits.Records())
	}
}

// TestResultsExchange drives /v1/results by hand: a pull-only exchange,
// a batch whose bad items — an unknown seq, a repeat — are answered per
// item while the rest land, and a report during drain that lands but
// leases nothing.
func TestResultsExchange(t *testing.T) {
	plans := testPlans(t, 3, 12)
	d := newTestDispatcher(t)
	h := d.Handler()
	for i := 0; i < 5; i++ {
		var resp wire.SubmitResponse
		if code := postJSON(t, h, "/v1/submit", wire.SubmitRequest{V: wire.Version, Key: fmt.Sprintf("k/%d", i), Spec: plans[i]}, &resp); code != http.StatusOK {
			t.Fatalf("submit %d answered %d", i, code)
		}
	}
	var resp wire.ResultsResponse
	if code := postJSON(t, h, "/v1/results", wire.ResultsRequest{V: wire.Version, Pull: 3}, &wire.GenericResponse{}); code != http.StatusBadRequest {
		t.Fatalf("exchange without a worker name answered %d", code)
	}
	if code := postJSON(t, h, "/v1/results", wire.ResultsRequest{V: wire.Version, Worker: "w", Pull: 3}, &resp); code != http.StatusOK {
		t.Fatalf("pull-only exchange answered %d", code)
	}
	if len(resp.Units) != 3 || len(resp.Results) != 0 || resp.Sealed || resp.Units[2].Seq != 2 || resp.Units[0].LeaseSec != 10 {
		t.Fatalf("pull-only exchange = %+v", resp)
	}
	if st := d.Stats(); len(st.Workers) != 1 || st.Workers[0] != "w" || st.Leased != 3 {
		t.Fatalf("after the pull: %+v", st)
	}

	counts := []wire.Count{{Bits: "00", N: 16}}
	resp = wire.ResultsResponse{}
	code := postJSON(t, h, "/v1/results", wire.ResultsRequest{V: wire.Version, Worker: "w", Pull: 1, Results: []wire.UnitResult{
		{Seq: 0, Counts: counts},
		{Seq: 99, Counts: counts},
		{Seq: 1, Err: "deterministic build failure"},
		{Seq: 0, Counts: []wire.Count{{Bits: "11", N: 16}}},
		{Seq: -1},
	}}, &resp)
	want := []wire.UnitAck{{Accepted: true, State: "done"}, {State: "unknown"}, {Accepted: true, State: "failed"}, {State: "done"}, {State: "unknown"}}
	if code != http.StatusOK || fmt.Sprint(resp.Results) != fmt.Sprint(want) {
		t.Fatalf("batch answered %d %+v, want 200 %+v", code, resp.Results, want)
	}
	if len(resp.Units) != 1 || resp.Units[0].Seq != 3 {
		t.Fatalf("batch leased %+v, want seq 3", resp.Units)
	}
	if st := d.Stats(); st.Done != 1 || st.Failed != 1 || st.Leased != 2 || st.Queued != 1 {
		t.Fatalf("after the batch: %+v", st)
	}
	if got := d.q.tasks[0].Counts; !slices.Equal(got, counts) {
		t.Fatalf("seq 0 kept %v, want its first outcome %v", got, counts)
	}

	d.BeginDrain()
	resp = wire.ResultsResponse{}
	code = postJSON(t, h, "/v1/results", wire.ResultsRequest{V: wire.Version, Worker: "w", Pull: 4, Results: []wire.UnitResult{{Seq: 2, Counts: counts}}}, &resp)
	if code != http.StatusOK || len(resp.Results) != 1 || !resp.Results[0].Accepted || len(resp.Units) != 0 {
		t.Fatalf("exchange during drain answered %d %+v, want the report accepted and nothing leased", code, resp)
	}
	if st := d.Stats(); st.Done != 2 || st.Queued != 1 || st.Leased != 1 {
		t.Fatalf("after the drain-time report: %+v", st)
	}
}

// TestCancelStatus: /v1/cancel answers 404 only for a key or seq the
// queue never accepted. Any other refusal is the dispatcher's own
// failure — here a closed queue, as a failed WAL write would be — and
// is a 500 carrying the queue's message, not "no such job".
func TestCancelStatus(t *testing.T) {
	d := newTestDispatcher(t)
	h := d.Handler()
	var sub wire.SubmitResponse
	if code := postJSON(t, h, "/v1/submit", wire.SubmitRequest{V: wire.Version, Key: "k/0", Spec: testPlans(t, 3, 1)[0]}, &sub); code != http.StatusOK {
		t.Fatalf("submit answered %d", code)
	}
	for name, req := range map[string]wire.CancelRequest{
		"unknown key": {V: wire.Version, Key: "k/none"},
		"unknown seq": {V: wire.Version, Seq: 7},
	} {
		var resp wire.GenericResponse
		if code := postJSON(t, h, "/v1/cancel", req, &resp); code != http.StatusNotFound || !strings.Contains(resp.Err, "no such task") {
			t.Errorf("%s: answered %d %q, want 404", name, code, resp.Err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	var resp wire.GenericResponse
	if code := postJSON(t, h, "/v1/cancel", wire.CancelRequest{V: wire.Version, Key: "k/0"}, &resp); code != http.StatusInternalServerError || !strings.Contains(resp.Err, "queue closed") {
		t.Errorf("cancel on a closed queue: answered %d %q, want 500 with the queue's message", code, resp.Err)
	}
}

// TestSubmitRefusesUnknownMachine: a spec the trace plane cannot
// record is the client's error, answered 400 before anything is
// journaled. Accepted, a machine the trace plane's fleet lacks would
// fail the sealed stream's replay on every request and every restart,
// and a batch size or shot count below 1 would put a job in the trace
// CSV that trace.ReadCSV refuses.
func TestSubmitRefusesUnknownMachine(t *testing.T) {
	d := newTestDispatcher(t)
	for i, c := range []struct {
		edit func(*wire.Spec)
		want string
	}{
		{func(s *wire.Spec) { s.Machine = "ibmq_nowhere" }, `unknown machine "ibmq_nowhere"`},
		{func(s *wire.Spec) { s.BatchSize = -5 }, "batch size -5"},
		{func(s *wire.Spec) { s.Shots = 0 }, "and 0 shots"},
	} {
		spec := testPlans(t, 3, 1)[0]
		c.edit(&spec)
		var resp wire.GenericResponse
		if code := postJSON(t, d.Handler(), "/v1/submit", wire.SubmitRequest{V: wire.Version, Key: fmt.Sprint("k/", i), Spec: spec}, &resp); code != http.StatusBadRequest || !strings.Contains(resp.Err, c.want) {
			t.Errorf("answered %d %q, want 400 saying %s", code, resp.Err, c.want)
		}
	}
	if st := d.Stats(); st.Jobs != 0 || d.q.submits.Records() != 0 {
		t.Fatalf("a refused spec was journaled: %+v, %d submit records", st, d.q.submits.Records())
	}
}

// getResult fetches a result route and returns its status and error.
func getResult(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var resp wire.GenericResponse
	if rec.Code != http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s answered %d with a body that is not JSON: %q", path, rec.Code, rec.Body.String())
		}
	}
	return rec.Code, resp.Err
}

// TestResultRouteStatus: the CSV routes answer 409 only for a result
// that is not final yet — no seal, counts not all in — and 500 for the
// dispatcher's own failures, here a replay that fails on a spec an
// older binary journaled without checking its machine.
func TestResultRouteStatus(t *testing.T) {
	d := newTestDispatcher(t)
	h := d.Handler()
	for _, path := range []string{"/v1/result/trace", "/v1/result/counts"} {
		if code, msg := getResult(t, h, path); code != http.StatusConflict || !strings.Contains(msg, "sealed") {
			t.Errorf("%s before the seal: answered %d %q, want 409", path, code, msg)
		}
	}
	spec := testPlans(t, 3, 1)[0]
	spec.Machine = "ibmq_nowhere"
	if _, _, err := d.q.Submit("k/0", spec); err != nil {
		t.Fatal(err)
	}
	if err := d.q.Seal(); err != nil {
		t.Fatal(err)
	}
	if code, msg := getResult(t, h, "/v1/result/counts"); code != http.StatusConflict || !strings.Contains(msg, "0/1 terminal") {
		t.Errorf("counts before the last result: answered %d %q, want 409", code, msg)
	}
	if code, msg := getResult(t, h, "/v1/result/counts?partial=1"); code != http.StatusOK {
		t.Errorf("partial counts: answered %d %q, want 200", code, msg)
	}
	if code, msg := getResult(t, h, "/v1/result/trace"); code != http.StatusInternalServerError || !strings.Contains(msg, `unknown machine "ibmq_nowhere"`) {
		t.Errorf("trace of a stream whose replay fails: answered %d %q, want 500 with the replay's error", code, msg)
	}
}

// TestEventsCursor: GET /v1/events takes a non-negative decimal cursor
// and nothing else — a cursor with trailing junk or a negative one is
// answered 400 with a GenericResponse, not read as a number or clamped
// to a "truncated" window on a ring that has dropped nothing; a cursor
// past next is an empty, untruncated page.
func TestEventsCursor(t *testing.T) {
	d := newTestDispatcher(t)
	h := d.Handler()
	for i := int64(0); i < 5; i++ {
		d.appendEvent(wire.Event{Seq: i})
	}
	get := func(query string, resp any) int {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/events"+query, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
			t.Fatalf("/v1/events%s answered %d with a body that is not JSON: %q", query, rec.Code, rec.Body.String())
		}
		return rec.Code
	}
	for _, q := range []string{"?since=12abc", "?since=abc", "?since=-1", "?since=1.5", "?since=99999999999999999999"} {
		var resp wire.GenericResponse
		if code := get(q, &resp); code != http.StatusBadRequest || resp.V != wire.Version || resp.Err == "" {
			t.Errorf("%s answered %d %+v, want 400 and an error", q, code, resp)
		}
	}
	pages := []struct {
		query string
		n     int
	}{{"", 5}, {"?since=", 5}, {"?since=0", 5}, {"?since=3", 2}, {"?since=5", 0}, {"?since=9", 0}}
	for _, p := range pages {
		var resp wire.EventsResponse
		if code := get(p.query, &resp); code != http.StatusOK || len(resp.Events) != p.n || resp.Next != 5 || resp.Truncated {
			t.Errorf("%q answered %d: %d events, next %d, truncated %v; want 200, %d, 5, false", p.query, code, len(resp.Events), resp.Next, resp.Truncated, p.n)
		}
	}
}

// TestEventRing: once full, the ring takes an event without moving or
// allocating anything; a cursor older than the ring reaches is told so
// and resumes at the oldest event retained; cursors inside it page
// exactly, across the wrap point too.
func TestEventRing(t *testing.T) {
	d := &Dispatcher{}
	check := func(since, wantFirst, wantNext int64, wantN int, wantTrunc bool) {
		t.Helper()
		evs, next, trunc := d.eventsSince(since)
		if next != wantNext || len(evs) != wantN || trunc != wantTrunc {
			t.Fatalf("eventsSince(%d) = %d events, next %d, truncated %v; want %d, %d, %v", since, len(evs), next, trunc, wantN, wantNext, wantTrunc)
		}
		for i, ev := range evs {
			if ev.Seq != wantFirst+int64(i) {
				t.Fatalf("eventsSince(%d)[%d] is event %d, want %d", since, i, ev.Seq, wantFirst+int64(i))
			}
		}
	}
	check(0, 0, 0, 0, false)
	n := int64(0)
	add := func() {
		d.appendEvent(wire.Event{Seq: n}) // Seq doubles as the stream index
		n++
	}
	for n < 5 {
		add()
	}
	check(0, 0, 5, 5, false)
	check(2, 2, 5, 3, false)
	check(5, 0, 5, 0, false)
	check(9, 0, 5, 0, false)
	check(-1, 0, 5, 5, true)

	for n < 300_000 {
		add()
	}
	if avg := testing.AllocsPerRun(1000, add); avg != 0 {
		t.Errorf("an append to the full ring allocates %.1f times", avg)
	}
	oldest := n - eventRingCap
	check(0, oldest, n, eventRingCap, true)
	check(oldest-1, oldest, n, eventRingCap, true)
	check(oldest, oldest, n, eventRingCap, false)
	check(n-10, n-10, n, 10, false)
	check(n, 0, n, 0, false)
	// A window that starts before the wrap point and ends after it.
	wrap := n - n%eventRingCap
	check(wrap-7, wrap-7, n, int(n-wrap+7), false)
}

// TestSubmitInstantsSurviveRestart: whatever submit_time encoding/json
// can deliver — none at all, a year a varint of nanoseconds cannot
// hold, a zone offset — is the instant the queue replays after a
// restart, and the trace served then is the trace served before.
func TestSubmitInstantsSurviveRestart(t *testing.T) {
	plans := testPlans(t, 3, 12)
	cfg := Config{Dir: t.TempDir(), Seed: 11}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { d.Close() }()
	h := d.Handler()
	for i, at := range []string{
		``, // no submit_time: the zero Time
		`"1600-02-29T01:02:03.000000004Z"`,
		`"2300-01-01T00:00:00.999999999Z"`,
		`"2019-03-04T05:06:07.000000008+02:00"`,
		`"` + plans[4].SubmitTime.Format(time.RFC3339Nano) + `"`,
	} {
		var spec map[string]json.RawMessage
		raw, _ := json.Marshal(plans[i])
		if err := json.Unmarshal(raw, &spec); err != nil {
			t.Fatal(err)
		}
		delete(spec, "submit_time")
		if at != "" {
			spec["submit_time"] = json.RawMessage(at)
		}
		var resp wire.SubmitResponse
		if code := postJSON(t, h, "/v1/submit", map[string]any{"v": wire.Version, "key": fmt.Sprintf("k/%d", i), "spec": spec}, &resp); code != http.StatusOK {
			t.Fatalf("submit %d (submit_time %s) answered %d", i, at, code)
		}
	}
	if code := postJSON(t, h, "/v1/seal", wire.SealRequest{V: wire.Version}, &wire.GenericResponse{}); code != http.StatusOK {
		t.Fatalf("seal answered %d", code)
	}
	sent := d.q.TraceInputs()
	if !sent[0].SubmitTime.IsZero() || sent[1].SubmitTime.Year() != 1600 || sent[2].SubmitTime.Year() != 2300 {
		t.Fatalf("the handler decoded submit times %v, %v, %v", sent[0].SubmitTime, sent[1].SubmitTime, sent[2].SubmitTime)
	}
	if _, off := sent[3].SubmitTime.Zone(); off != 2*3600 {
		t.Fatalf("the handler decoded the +02:00 submit time as %v", sent[3].SubmitTime)
	}
	before, err := d.TraceCSV()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	if d, err = New(cfg); err != nil {
		t.Fatal(err)
	}
	replayed := d.q.TraceInputs()
	if len(replayed) != len(sent) {
		t.Fatalf("replayed %d of %d specs", len(replayed), len(sent))
	}
	for i := range sent {
		if !replayed[i].SubmitTime.Equal(sent[i].SubmitTime) {
			t.Errorf("spec %d was submitted at %v and replays at %v", i, sent[i].SubmitTime, replayed[i].SubmitTime)
		}
	}
	// Without the trace file the restarted dispatcher re-simulates, so
	// the trace below is computed from the instants the WAL replayed.
	if err := os.Remove(filepath.Join(cfg.Dir, traceFileName)); err != nil {
		t.Fatal(err)
	}
	after, err := d.TraceCSV()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("the trace CSV changed across the restart:\n before:\n%s\n after:\n%s", before, after)
	}
}

// TestNonCanonicalReportLandsAsTheMapPath: a report whose pairs are
// unsorted, repeat a bitstring and carry a zero count lands exactly as
// the same counts merged through a map and reported by Queue.Result —
// the same WAL record bytes, the same task counts, the same CSV row —
// whether it comes through /v1/results, /v1/result or Queue.Exchange.
func TestNonCanonicalReportLandsAsTheMapPath(t *testing.T) {
	plans := testPlans(t, 3, 12)[:2]
	hostile := []wire.Count{{Bits: "11", N: 2}, {Bits: "00", N: 1}, {Bits: "11", N: 3}, {Bits: "01", N: 0}}
	paths := map[string]func(d *Dispatcher) error{
		"Queue.Result": func(d *Dispatcher) error {
			_, _, err := d.q.Result("w", 1, 0, map[string]int{"00": 1, "01": 0, "11": 5}, "")
			return err
		},
		"/v1/results": func(d *Dispatcher) error {
			var resp wire.ResultsResponse
			if code := postJSON(t, d.Handler(), "/v1/results", wire.ResultsRequest{V: wire.Version, Worker: "w", Results: []wire.UnitResult{{Seq: 1, Counts: hostile}}}, &resp); code != http.StatusOK {
				return fmt.Errorf("answered %d", code)
			}
			return nil
		},
		"/v1/result": func(d *Dispatcher) error {
			var resp wire.ResultResponse
			if code := postJSON(t, d.Handler(), "/v1/result", wire.ResultRequest{V: wire.Version, Worker: "w", Seq: 1, Counts: hostile}, &resp); code != http.StatusOK {
				return fmt.Errorf("answered %d", code)
			}
			return nil
		},
		"Queue.Exchange": func(d *Dispatcher) error {
			_, err := d.q.Exchange("w", []Report{{Seq: 1, Counts: slices.Clone(hostile)}}, 0)
			return err
		},
	}
	type landed struct {
		wal, csv []byte
		counts   []wire.Count
	}
	results := make(map[string]landed)
	for name, report := range paths {
		d := newTestDispatcher(t)
		for i, p := range plans {
			if _, _, err := d.q.Submit(fmt.Sprintf("k/%d", i), p); err != nil {
				t.Fatal(err)
			}
		}
		if err := report(d); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		csv, err := d.CountsCSV(true)
		if err != nil {
			t.Fatal(err)
		}
		results[name] = landed{wal: streamBytes(t, d.cfg.Dir, resultsDirName), csv: csv, counts: d.q.tasks[1].Counts}
	}
	want := results["Queue.Result"]
	if len(want.wal) == 0 || !bytes.Contains(want.csv, []byte(",ok,,00:1 01:0 11:5\n")) {
		t.Fatalf("map path journaled %d bytes and wrote\n%s", len(want.wal), want.csv)
	}
	for name, got := range results {
		if !bytes.Equal(got.wal, want.wal) || !bytes.Equal(got.csv, want.csv) || !slices.Equal(got.counts, want.counts) {
			t.Errorf("%s landed counts %v, CSV\n%s\nthe map path %v, CSV\n%s", name, got.counts, got.csv, want.counts, want.csv)
		}
	}
}

// TestNonCanonicalBodiesAnswerAsEncodingJSON posts submit and exchange
// bodies that are not in the wire codec's canonical form. json.Unmarshal
// reads them, so each is answered as encoding/json answers it, pinned
// here: a body json.Unmarshal reads is accepted, and the rest — trailing
// data after the value included — are refused with its own message.
func TestNonCanonicalBodiesAnswerAsEncodingJSON(t *testing.T) {
	d := newTestDispatcher(t)
	h := d.Handler()
	spec, err := json.Marshal(testPlans(t, 3, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	submit := func(head string) string { return head + `"spec":` + string(spec) + `}` }
	cases := []struct{ name, path, body string }{
		{"canonical", "/v1/submit", submit(`{"v":1,"key":"k/0",`)},
		{"whitespace", "/v1/submit", submit("{ \"v\": 1,\n\t\"key\" :\"k/1\" ,")},
		{"reordered keys", "/v1/submit", `{"spec":` + string(spec) + `,"key":"k/2","v":1}`},
		{"unknown key", "/v1/submit", submit(`{"v":1,"key":"k/3","extra":[1,{"a":null}],`)},
		{"upper-case key", "/v1/submit", submit(`{"V":1,"KEY":"k/4",`)},
		{"escaped string", "/v1/submit", submit(`{"v":1,"key":"k\/5\u00e9",`)},
		{"non-ASCII string", "/v1/submit", submit(`{"v":1,"key":"k/6é",`)},
		{"a duplicate, escaped", "/v1/submit", submit(`{"v":1,"key":"k/0",`)},
		{"leading zero", "/v1/submit", submit(`{"v":01,"key":"k/7",`)},
		{"trailing data", "/v1/submit", submit(`{"v":1,"key":"k/8",`) + `{"v":2} trailing`},
		{"trailing newlines", "/v1/submit", submit(`{"v":1,"key":"k/9",`) + "\n\n"},
		{"wrong version", "/v1/submit", submit(`{"v":2,"key":"k/10",`)},
		{"exchange, canonical", "/v1/results", `{"v":1,"worker":"w","pull":1}`},
		{"exchange, whitespace", "/v1/results", `{"v":1, "worker":"w", "pull":1}`},
		{"exchange, leading zero", "/v1/results", `{"v":1,"worker":"w","results":[{"seq":00}],"pull":0}`},
		{"exchange, escaped string", "/v1/results", `{"v":1,"worker":"w","results":[{"seq":1,"attempt":0,"counts":[{"bits":"\u0031","n":2}]}],"pull":0}`},
		{"exchange, trailing data", "/v1/results", `{"v":1,"worker":"w","pull":0}]`},
	}
	var got strings.Builder
	answer := func(name, path string, body io.Reader) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
		fmt.Fprintf(&got, "%s: %d %s", name, rec.Code, rec.Body.String())
	}
	for _, c := range cases {
		answer(c.name, c.path, strings.NewReader(c.body))
	}
	answer("oversized", "/v1/submit", io.MultiReader(strings.NewReader(`{"v":1,"key":"`), io.LimitReader(zeros{}, maxBodyBytes), strings.NewReader(`"}`)))
	want := `canonical: 200 {"v":1,"seq":0}
whitespace: 200 {"v":1,"seq":1}
reordered keys: 200 {"v":1,"seq":2}
unknown key: 200 {"v":1,"seq":3}
upper-case key: 200 {"v":1,"seq":4}
escaped string: 200 {"v":1,"seq":5}
non-ASCII string: 200 {"v":1,"seq":6}
a duplicate, escaped: 200 {"v":1,"seq":0,"dup":true}
leading zero: 400 {"v":1,"err":"bad request body: invalid character '1' after object key:value pair"}
trailing data: 400 {"v":1,"err":"bad request body: invalid character '{' after top-level value"}
trailing newlines: 200 {"v":1,"seq":7}
wrong version: 400 {"v":1,"err":"wire: message version 2, want 1"}
exchange, canonical: 200 {"v":1,"sealed":false,"units":[{"seq":0,"attempt":0,"spec":` + string(spec) + `,"lease_sec":10}]}
exchange, whitespace: 200 {"v":1,"sealed":false,"units":[{"seq":1,"attempt":0,"spec":` + string(spec) + `,"lease_sec":10}]}
exchange, leading zero: 400 {"v":1,"err":"bad request body: invalid character '0' after object key:value pair"}
exchange, escaped string: 200 {"v":1,"results":[{"accepted":true,"state":"done"}],"sealed":false}
exchange, trailing data: 400 {"v":1,"err":"bad request body: invalid character ']' after top-level value"}
oversized: 413 {"v":1,"err":"bad request body: http: request body too large"}
`
	if got.String() != want {
		t.Errorf("answers:\n%s\nwant:\n%s", got.String(), want)
	}
}

// FuzzDecodeBody posts arbitrary bytes as the body of /v1/submit and
// /v1/results, whose messages wire's canonical codec covers, and of
// /v1/cancel, whose message it does not. decode must answer exactly as
// json.Unmarshal and wire.CheckVersion alone would: the same accept or
// refuse, the same status and error body, and a reflect.DeepEqual value.
// Whatever json.Unmarshal leaves in the message is posted too, as
// json.Marshal writes it, which is canonical, at a version the body's
// length picks, so the codec's branch meets wrong versions as often as
// right ones.
func FuzzDecodeBody(f *testing.F) {
	spec := testPlans(f, 3, 1)[0]
	for _, m := range []any{
		wire.SubmitRequest{V: wire.Version, Key: "k/0", Spec: spec},
		wire.ResultsRequest{V: wire.Version, Worker: "w", Results: []wire.UnitResult{{Seq: 1, Counts: []wire.Count{{Bits: "01", N: 2}}}, {Seq: 2, Err: "e"}}, Pull: 1},
		wire.CancelRequest{V: wire.Version, Key: "k/0"},
	} {
		b, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body, func(m *wire.SubmitRequest) *int { return &m.V })
		checkDecode(t, body, func(m *wire.ResultsRequest) *int { return &m.V })
		checkDecode(t, body, func(m *wire.CancelRequest) *int { return &m.V })
	})
}

// checkDecode holds decode's answers to body and to its re-encoding
// against json.Unmarshal's. version picks a T's V.
func checkDecode[T any](t *testing.T, body []byte, version func(*T) *int) {
	t.Helper()
	var m T
	_ = json.Unmarshal(body, &m)
	*version(&m) = len(body) % 3
	if again, err := json.Marshal(&m); err == nil {
		answersAsUnmarshal(t, again, version)
	}
	answersAsUnmarshal(t, body, version)
}

// answersAsUnmarshal runs decode on body into a T and requires the
// answer json.Unmarshal and wire.CheckVersion give.
func answersAsUnmarshal[T any](t *testing.T, body []byte, version func(*T) *int) {
	t.Helper()
	var want T
	wantCode, wantErr := http.StatusOK, ""
	if err := json.Unmarshal(body, &want); err != nil {
		wantCode, wantErr = http.StatusBadRequest, "bad request body: "+err.Error()
	} else if err := wire.CheckVersion(*version(&want)); err != nil {
		wantCode, wantErr = http.StatusBadRequest, err.Error()
	}

	var got T
	rec := httptest.NewRecorder()
	ok := decode(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), &got, version(&got))
	if ok != (wantCode == http.StatusOK) || rec.Code != wantCode {
		t.Fatalf("%T from %q: decode answered %v, %d %s; json.Unmarshal answers %d %q", got, body, ok, rec.Code, rec.Body, wantCode, wantErr)
	}
	if !ok {
		want, _ := json.Marshal(wire.GenericResponse{V: wire.Version, Err: wantErr})
		if !bytes.Equal(rec.Body.Bytes(), append(want, '\n')) {
			t.Fatalf("%T from %q: decode answered %s, want %s", got, body, rec.Body, want)
		}
		return
	}
	if rec.Body.Len() != 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q: decode read %+v (and wrote %q), json.Unmarshal %+v", got, body, got, rec.Body, want)
	}
}
