package dispatch

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
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
