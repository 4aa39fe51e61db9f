package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// clockBase anchors the benchmark's monotonic clock.
var clockBase = time.Now()

// now reads the benchmark's monotonic clock in nanoseconds.
func now() int64 { return int64(time.Since(clockBase)) }

// span is one timed interval of a traced episode: the layer boundary it
// covers, its start and end on the benchmark clock, and the span that
// caused it (0 for an episode's root span).
type span struct {
	ID     int    `json:"span_id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory; writeFile writes them out
// once the run ends. All spans of one run share the log's trace id. A nil
// *spanLog is the untraced mode: every method is a no-op, so the runners
// call it unconditionally.
type spanLog struct {
	traceID string
	spans   []span
}

func newSpanLog(traceID string) *spanLog { return &spanLog{traceID: traceID} }

// reserve makes room for n more spans, so recording inside a timed stage
// loop never grows the slice (and never allocates there).
func (l *spanLog) reserve(n int) {
	if l == nil || cap(l.spans)-len(l.spans) >= n {
		return
	}
	grown := make([]span, len(l.spans), len(l.spans)+n)
	copy(grown, l.spans)
	l.spans = grown
}

// add records a finished span and returns its id (0 when untraced).
func (l *spanLog) add(name string, parent int, start, end int64) int {
	if l == nil {
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (l *spanLog) open(name string, parent int) int { return l.add(name, parent, now(), 0) }

func (l *spanLog) close(id int) {
	if l != nil && id > 0 {
		l.spans[id-1].End = now()
	}
}

// timed runs fn inside a span and returns fn's duration in milliseconds.
func (l *spanLog) timed(name string, parent int, fn func() error) (float64, error) {
	start := now()
	err := fn()
	end := now()
	l.add(name, parent, start, end)
	return float64(end-start) / 1e6, err
}

// durationsMs returns the durations of the spans under parent with the
// given name, in milliseconds.
func (l *spanLog) durationsMs(name string, parent int) []float64 {
	if l == nil {
		return nil
	}
	var out []float64
	for _, s := range l.spans[parent:] {
		if s.Parent == parent && s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// coverage is the share of root's duration covered by the leaf spans in
// its subtree. Leaves never overlap: every runner records them back to
// back on one goroutine.
func (l *spanLog) coverage(root int) float64 {
	if l == nil || root <= 0 {
		return 0
	}
	sub := l.spans[root-1:]
	inTree := map[int]bool{root: true}
	hasChild := map[int]bool{}
	for _, s := range sub[1:] {
		if inTree[s.Parent] {
			inTree[s.ID] = true
			hasChild[s.Parent] = true
		}
	}
	var covered int64
	for _, s := range sub[1:] {
		if inTree[s.ID] && !hasChild[s.ID] {
			covered += s.End - s.Start
		}
	}
	total := sub[0].End - sub[0].Start
	if total <= 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// writeFile writes the spans as JSON lines, each tagged with the trace id.
func (l *spanLog) writeFile(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type record struct {
		TraceID string `json:"trace_id"`
		span
	}
	for _, s := range l.spans {
		if err := enc.Encode(record{TraceID: l.traceID, span: s}); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
