package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call the bench made into a layer. Spans live in
// memory until the run ends; Parent is the span that caused this one
// (-1 for a root) and Run ties the spans of one workload run together.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Run     string `json:"run"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans into a preallocated arena: begin claims a slot
// with one atomic add, so concurrent clients never share a lock and a
// span costs two clock reads. A nil or switched-off tracer records
// nothing, which is how the timed (untraced) rounds run.
type tracer struct {
	run     string
	t0      time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	on      atomic.Bool
}

// maxSpans bounds the arena (and the JSON file): a traced live-http
// round is one span per request.
const maxSpans = 1 << 18

func newTracer(run string) *tracer {
	return &tracer{run: run, t0: time.Now(), spans: make([]span, maxSpans)}
}

// enable switches recording on or off; a nil tracer stays off.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// begin opens a span and returns its id, or -1 when tracing is off or
// the arena is full.
func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	i := int(t.next.Add(1) - 1)
	if i >= len(t.spans) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{ID: i, Parent: parent, Name: name, Run: t.run, StartNs: int64(time.Since(t.t0))}
	return i
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].EndNs = int64(time.Since(t.t0))
	}
}

func (t *tracer) recorded() []span {
	if t == nil {
		return nil
	}
	n := int(t.next.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	return t.spans[:n]
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover. Children may overlap (parallel
// requests under one round), so the covered part is the union of their
// intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	index := make(map[int]int, len(spans))
	for i, s := range spans {
		index[s.ID] = i
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.EndNs - s.StartNs
	}
	for parent, kids := range children {
		pi, ok := index[parent]
		if !ok {
			continue
		}
		p := spans[pi]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		var covered int64
		edge := p.StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < edge {
				lo = edge
			}
			if hi > p.EndNs {
				hi = p.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[pi] -= covered
	}
	return self
}

// spanSummary aggregates spans by name for the printed report.
type spanSummary struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	by := map[string]*spanSummary{}
	var order []string
	for i, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &spanSummary{Name: s.Name}
			by[s.Name] = a
			order = append(order, s.Name)
		}
		a.Count++
		a.TotalNs += s.EndNs - s.StartNs
		a.SelfNs += self[i]
	}
	out := make([]spanSummary, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	return out
}

// writeSpans writes the span file and prints the per-name summary.
func (t *tracer) writeSpans(path string, w io.Writer) error {
	spans := t.recorded()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	doc := struct {
		Run     string `json:"run"`
		Dropped int64  `json:"dropped"`
		Spans   []span `json:"spans"`
	}{t.run, t.dropped.Load(), spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace: close %s: %w", path, err)
	}
	fmt.Fprintf(w, "# spans: %d recorded, %d dropped, written to %s\n", len(spans), t.dropped.Load(), path)
	fmt.Fprintf(w, "# %-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range summarize(spans) {
		fmt.Fprintf(w, "# %-28s %9d %12.3f %12.3f\n", s.Name, s.Count, float64(s.TotalNs)/1e6, float64(s.SelfNs)/1e6)
	}
	return nil
}
