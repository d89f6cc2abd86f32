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

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls (or, for the transport, around the hub methods
// the live runtime calls through the wrapper in hub.go).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    string `json:"run"`    // the member run the span belongs to
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// Count is the number of calls the span covers: 1 for a single call,
	// more for a probe that times a batch of cheap calls together.
	Count int `json:"count"`
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is
// the untraced mode: every method is a no-op, so untraced passes run the
// same code with nothing recorded.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores a finished span and returns its id.
func (t *tracer) record(name, run string, parent int, start, end time.Time, count int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: run, Name: name,
		Start: start.Sub(t.t0), End: end.Sub(t.t0), Count: count})
	return id
}

// open starts a span whose children are recorded before it ends; close
// finishes it. open returns the id children name as their parent.
func (t *tracer) open(name, run string, parent int) int {
	now := time.Now()
	return t.record(name, run, parent, now, now, 1)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = time.Since(t.t0)
	t.mu.Unlock()
}

// spansNamed returns the spans with the given name.
func spansNamed(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns each span's duration in seconds.
func durations(spans []span) []float64 {
	out := make([]float64, len(spans))
	for k, s := range spans {
		out[k] = (s.End - s.Start).Seconds()
	}
	return out
}

// selfTimes sums, per span name, each span's self time: its duration minus
// the part its children cover. Children must be among spans.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += selfTime(s.Start, s.End, children[s.ID])
	}
	return out
}

// since returns the spans recorded after the first n.
func (t *tracer) since(n int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans[n:]...)
}

// count returns how many spans are recorded.
func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write stores the spans as JSON lines in path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: encode: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	return nil
}
