package dispatch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
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

// TestHTTPRefusesBadBodies: a body over the limit, malformed JSON and a
// wrong protocol version are each answered with the matching status and
// a GenericResponse naming the problem, and change nothing.
func TestHTTPRefusesBadBodies(t *testing.T) {
	d := newTestDispatcher(t)
	h := d.Handler()
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
	if st := d.Stats(); st.Jobs != 0 || st.Sealed || len(st.Workers) != 0 {
		t.Errorf("refused requests changed state: %+v", st)
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
