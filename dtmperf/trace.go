package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer: its name, its interval relative to
// the tracer's origin, and the span that caused it (0 for a root).
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run writes them out. A nil tracer
// records nothing, so the timed path calls the same helpers with tracing
// off.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a finished span with explicit bounds and attributes — used for
// marks (start == end) and for aggregates the decorator sums per member.
func (t *tracer) record(name string, parent int, start, end time.Time, attrs map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
		Attrs: attrs,
	})
}

// duration returns the length of span id.
func (t *tracer) duration(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return time.Duration(s.End - s.Start)
}

// write stores the run context and every span as one JSON document.
func (t *tracer) write(path string, ctx runContext) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Context runContext `json:"context"`
		Spans   []span     `json:"spans"`
	}{ctx, t.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
