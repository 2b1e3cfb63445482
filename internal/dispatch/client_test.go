package dispatch

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"qcloud/internal/dispatch/wire"
)

// TestClientRefusesOversizedResponse: a response body at the cap is
// read whole; one byte more is an error, never a truncated CSV
// returned as a success.
func TestClientRefusesOversizedResponse(t *testing.T) {
	capped := maxResponseBytes
	t.Cleanup(func() { maxResponseBytes = capped })
	maxResponseBytes = 16

	atCap := strings.Repeat("x", 16)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The full counts CSV is at the cap; the partial one and the
		// trace are a byte over it.
		body := atCap
		if r.URL.Path != "/v1/result/counts" || r.URL.Query().Get("partial") == "1" {
			body += "y"
		}
		_, _ = w.Write([]byte(body))
	}))
	defer srv.Close()
	cl := &Client{Server: srv.URL}

	if got, err := cl.CountsCSV(false); err != nil || string(got) != atCap {
		t.Fatalf("a response at the cap read as %q, %v", got, err)
	}
	if got, err := cl.CountsCSV(true); err == nil || !strings.Contains(err.Error(), "exceeds 16 bytes") {
		t.Fatalf("counts a byte over the cap read as %q, %v; want an error", got, err)
	}
	if got, err := cl.TraceCSV(); err == nil {
		t.Fatalf("a trace a byte over the cap read as %q; want an error", got)
	}
}

// TestClientRoundTrip: Submit and Exchange write json.Marshal's bytes,
// read a canonical 200 body and a non-canonical one (whitespace, keys
// reordered) to the value json.Unmarshal reads, and fail on a request
// json.Marshal refuses with exactly its error, sending nothing.
func TestClientRoundTrip(t *testing.T) {
	spec := testPlans(t, 3, 1)[0]
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var answer string
	var got [][]byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		got = append(got, b)
		_, _ = io.WriteString(w, answer)
	}))
	defer srv.Close()
	cl := &Client{Server: srv.URL}

	results := []wire.UnitResult{{Seq: 3, Counts: []wire.Count{{Bits: "01", N: 2}}}, {Seq: 4, Err: "e"}}
	calls := []struct {
		name    string
		req     any
		call    func() (any, error)
		answers []string // canonical first
	}{
		{"Submit", &wire.SubmitRequest{V: wire.Version, Key: "k/0", Spec: spec},
			func() (any, error) { return cl.Submit("k/0", spec) },
			[]string{
				`{"v":1,"seq":7,"dup":true}` + "\n",
				"{ \"v\": 1,\n\t\"seq\": 7, \"dup\": true }",
				`{"dup":true,"seq":7,"v":1}`,
			}},
		{"Exchange", &wire.ResultsRequest{V: wire.Version, Worker: "w", Results: results, Pull: 2},
			func() (any, error) { return cl.Exchange("w", results, 2) },
			[]string{
				`{"v":1,"results":[{"accepted":true,"state":"done"},{"accepted":false,"state":"failed"}],"sealed":true,"units":[{"seq":5,"attempt":1,"spec":` + string(specJSON) + `,"lease_sec":10}]}` + "\n",
				`{"v":1, "results":[{"accepted":true,"state":"done"},{"accepted":false,"state":"failed"}], "sealed":true, "units":[{"seq":5,"attempt":1,"spec":` + string(specJSON) + `,"lease_sec":10}]}`,
				`{"units":[{"lease_sec":10,"spec":` + string(specJSON) + `,"attempt":1,"seq":5}],"sealed":true,"results":[{"state":"done","accepted":true},{"state":"failed"}],"v":1}`,
			}},
	}
	for _, c := range calls {
		wantReq, err := json.Marshal(c.req)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range c.answers {
			answer, got = a, nil
			resp, err := c.call()
			if err != nil {
				t.Fatalf("%s, answer %d: %v", c.name, i, err)
			}
			want := reflect.New(reflect.TypeOf(resp))
			if err := json.Unmarshal([]byte(a), want.Interface()); err != nil {
				t.Fatal(err)
			}
			canon := reflect.New(reflect.TypeOf(resp)).Interface().(interface{ DecodeCanonical([]byte) error })
			if isCanonical := canon.DecodeCanonical([]byte(a)) == nil; isCanonical != (i == 0) {
				t.Fatalf("%s, answer %d: canonical is %v", c.name, i, isCanonical)
			}
			if !reflect.DeepEqual(resp, want.Elem().Interface()) {
				t.Errorf("%s read answer %d as %+v; json.Unmarshal reads %+v", c.name, i, resp, want.Elem().Interface())
			}
			if len(got) != 1 || !bytes.Equal(got[0], wantReq) {
				t.Errorf("%s sent %q; json.Marshal writes %s", c.name, got, wantReq)
			}
		}
	}

	for name, edit := range map[string]func(*wire.Spec){
		"NaN patience":      func(s *wire.Spec) { s.PatienceSec = math.NaN() },
		"year-10000 submit": func(s *wire.Spec) { s.SubmitTime = time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC) },
	} {
		bad := spec
		edit(&bad)
		_, want := json.Marshal(&wire.SubmitRequest{V: wire.Version, Key: "k/1", Spec: bad})
		got = nil
		if _, err := cl.Submit("k/1", bad); want == nil || err == nil || err.Error() != want.Error() || len(got) != 0 {
			t.Errorf("%s: Submit failed with %v after %d requests; want json.Marshal's %v and none", name, err, len(got), want)
		}
	}
}
