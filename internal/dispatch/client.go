package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"qcloud/internal/dispatch/wire"
)

// Client is the psq-style thin client for the dispatcher's HTTP API.
type Client struct {
	// Server is the dispatcher's base URL.
	Server string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// Timeout bounds each call (default 10s).
	Timeout time.Duration
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 10 * time.Second
}

// maxResponseBytes bounds a response body the client reads. It is a
// variable only so that tests can lower it.
var maxResponseBytes int64 = 256 << 20

// do runs one JSON round trip; non-200 responses surface the server's
// error string. marshal and unmarshal try wire's codec first, so the
// outcome, a refused value's error included, is encoding/json's.
func (c *Client) do(method, path string, req, resp any) error {
	var raw []byte
	if req != nil {
		var err error
		if raw, err = marshal(req); err != nil {
			return err
		}
	}
	data, err := c.send(method, path, raw)
	if err != nil {
		return err
	}
	if out, ok := resp.(*[]byte); ok {
		*out = data
		return nil
	}
	return unmarshal(data, resp)
}

// send posts body (a GET without one when nil) and returns the response
// body of a 200.
func (c *Client) send(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout())
	defer cancel()
	hr, err := http.NewRequestWithContext(ctx, method, c.Server+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	res, err := c.http().Do(hr)
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	// One byte past the cap tells a response at the cap from a longer
	// one, which would otherwise come back truncated as a success.
	data, err := readBody(io.LimitReader(res.Body, maxResponseBytes+1), res.ContentLength)
	if err != nil {
		return nil, err
	}
	if int64(len(data)) > maxResponseBytes {
		return nil, fmt.Errorf("dispatch: %s: response exceeds %d bytes", path, maxResponseBytes)
	}
	if res.StatusCode != http.StatusOK {
		var ge wire.GenericResponse
		if json.Unmarshal(data, &ge) == nil && ge.Err != "" {
			return nil, fmt.Errorf("dispatch: %s: %s", path, ge.Err)
		}
		return nil, fmt.Errorf("dispatch: %s: HTTP %d", path, res.StatusCode)
	}
	return data, nil
}

// Submit submits one spec under an idempotency key.
func (c *Client) Submit(key string, spec wire.Spec) (wire.SubmitResponse, error) {
	var resp wire.SubmitResponse
	err := c.do(http.MethodPost, "/v1/submit", &wire.SubmitRequest{V: wire.Version, Key: key, Spec: spec}, &resp)
	return resp, err
}

// Seal closes the submission stream.
func (c *Client) Seal() error {
	var resp wire.GenericResponse
	return c.do(http.MethodPost, "/v1/seal", wire.SealRequest{V: wire.Version}, &resp)
}

// Exchange is a worker's whole turn in one round trip: report results
// and lease up to pull new units (see wire.ResultsRequest).
func (c *Client) Exchange(worker string, results []wire.UnitResult, pull int) (wire.ResultsResponse, error) {
	var resp wire.ResultsResponse
	err := c.do(http.MethodPost, "/v1/results", &wire.ResultsRequest{V: wire.Version, Worker: worker, Results: results, Pull: pull}, &resp)
	return resp, err
}

// Cancel cancels by key or seq.
func (c *Client) Cancel(key string, seq int64) (wire.ResultResponse, error) {
	var resp wire.ResultResponse
	err := c.do(http.MethodPost, "/v1/cancel", wire.CancelRequest{V: wire.Version, Key: key, Seq: seq}, &resp)
	return resp, err
}

// Status fetches the live status summary.
func (c *Client) Status() (wire.StatusResponse, error) {
	var resp wire.StatusResponse
	err := c.do(http.MethodGet, "/v1/status", nil, &resp)
	return resp, err
}

// Events pages the observable event stream from the cursor.
func (c *Client) Events(since int64) (wire.EventsResponse, error) {
	var resp wire.EventsResponse
	err := c.do(http.MethodGet, fmt.Sprintf("/v1/events?since=%d", since), nil, &resp)
	return resp, err
}

// TraceCSV fetches the trace-plane result (requires a sealed stream).
func (c *Client) TraceCSV() ([]byte, error) {
	var raw []byte
	err := c.do(http.MethodGet, "/v1/result/trace", nil, &raw)
	return raw, err
}

// CountsCSV fetches the counts-plane result (requires a sealed,
// fully-terminal stream unless partial).
func (c *Client) CountsCSV(partial bool) ([]byte, error) {
	path := "/v1/result/counts"
	if partial {
		path += "?partial=1"
	}
	var raw []byte
	err := c.do(http.MethodGet, path, nil, &raw)
	return raw, err
}
