package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer of the
// simulator. Parent is the ID of the enclosing span, 0 at the top level.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.End - s.Start) * float64(time.Microsecond))
}

// tracer keeps the spans of one run in memory. The benchmark calls into
// the simulator from one goroutine, so a stack of open spans gives each
// new span its parent. A nil *tracer records nothing, which is how the
// untraced run measures the end-to-end metrics.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.t0).Nanoseconds()) / 1e3
}

// call runs fn inside a span named name and returns how long fn took.
// It returns the duration on a nil tracer too, so every measurement of
// the benchmark goes through one clock.
func (t *tracer) call(name string, fn func()) time.Duration {
	start := time.Now()
	if t == nil {
		fn()
		return time.Since(start)
	}
	id := len(t.spans) + 1
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: t.us(start)})
	t.open = append(t.open, id-1)
	fn()
	end := time.Now()
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].End = t.us(end)
	return end.Sub(start)
}

// last returns the ID of the latest span named name, or 0.
func (t *tracer) last(name string) int {
	if t == nil {
		return 0
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == name {
			return t.spans[i].ID
		}
	}
	return 0
}

// duration returns how long the span with ID id took.
func (t *tracer) duration(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	return t.spans[id-1].dur()
}

// selfByName sums the self time of every span below the span with ID
// root, grouped by span name. A span's self time is its duration minus
// the durations of its direct children.
func (t *tracer) selfByName(root int) map[string]time.Duration {
	out := map[string]time.Duration{}
	if t == nil || root == 0 {
		return out
	}
	under := map[int]bool{root: true}
	child := map[int]time.Duration{}
	// Spans are appended in start order, so a parent precedes its children.
	for _, s := range t.spans[root:] {
		if under[s.Parent] {
			under[s.ID] = true
			child[s.Parent] += s.dur()
		}
	}
	for _, s := range t.spans[root:] {
		if under[s.ID] {
			out[s.Name] += s.dur() - child[s.ID]
		}
	}
	return out
}

// traceFile is what a traced run writes when it ends.
type traceFile struct {
	Provenance provenance       `json:"provenance"`
	CPUNanos   map[string]int64 `json:"cpu_ns_by_layer"`
	Spans      []span           `json:"spans"`
}

// write stores the spans, with the folded CPU profile, as JSON at path.
func (t *tracer) write(path string, p provenance, cpu map[string]int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(traceFile{Provenance: p, CPUNanos: cpu, Spans: t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
