package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded from the benchmark's own files, around the exported
// functions and HTTP endpoints it calls; nothing inside the program
// under test is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// Job is the identifier every span of one job shares: the spec's
	// index in the generated stream, -1 for spans that cover many jobs.
	Job   int   `json:"job"`
	Start int64 `json:"start_ns"` // since the tracer was created
	End   int64 `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil tracer records
// nothing, which is how end-to-end runs keep tracing off.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// rootSpan is the id of the first span a tracer records: the traced
// pass itself, under which a workload hangs its spans.
const rootSpan = 0

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(parent int, layer, name string, job int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Job: job, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfByLayer sums, per layer, each span's duration minus the part of
// it its child spans cover.
func selfByLayer(spans []span) map[string]int64 {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]int64{}
	for _, s := range spans {
		if d := s.End - s.Start - children[s.ID]; d > 0 {
			self[s.Layer] += d
		}
	}
	return self
}

// write stores the spans and the per-layer self times as
// <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed int64) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Workload    string           `json:"workload"`
		Seed        int64            `json:"seed"`
		SelfByLayer map[string]int64 `json:"self_ns_by_layer"`
		Spans       []span           `json:"spans"`
	}{workload, seed, selfByLayer(t.spans), t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
