package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. The spans of one
// compile or request share Trace; Parent is the enclosing span's ID, -1 for
// a root. Start and End are offsets from the tracer's creation.
type span struct {
	Trace  int64         `json:"trace"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced runs that produce the end-to-end
// metrics call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(trace int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) { t.endAs(id, "") }

// endAs closes span id and, when name is not empty, renames it: a segment's
// memo tier is known only when the segment is done.
func (t *tracer) endAs(id int, name string) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	if name != "" {
		t.spans[id].Name = name
	}
}

// layerTime sums the spans of one name: Total is their summed duration, Self
// that minus the time their direct children cover.
type layerTime struct {
	Total, Self time.Duration
	Count       int
}

// layers aggregates every span by name. Children of one span never overlap
// (every traced caller makes its layer calls one after another), so a span's
// self time is its duration minus its children's durations.
func (t *tracer) layers() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	childTime := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerTime{}
	for i, s := range t.spans {
		lt := out[s.Name]
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - childTime[i]
		lt.Count++
		out[s.Name] = lt
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
