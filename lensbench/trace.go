package main

import (
	"sync"
	"time"

	"gamelens"
)

// tracer records spans in memory at the benchmark's own call boundaries
// (the program itself is not instrumented) and keeps per-name sums for the
// per-layer metrics. Spans past maxSpans are summed but not kept.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	parent int32
	spans  []spanRec
	sums   map[string]*spanSum
}

// spanRec is one recorded span; Parent is the enclosing phase span (0 for
// none) and N the work items the span covered.
type spanRec struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
	N       int64  `json:"n"`
}

type spanSum struct {
	Count int64
	DurNs int64
	N     int64
}

const maxSpans = 1 << 16

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sums: map[string]*spanSum{}}
}

// span starts a span and returns the function that ends it.
func (t *tracer) span(name string, n int64) func() {
	start := time.Now()
	return func() { t.record(name, start, time.Since(start), n) }
}

// phase starts a parent span: spans recorded until its end nest under it.
func (t *tracer) phase(name string) func() {
	start := time.Now()
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	prev := t.parent
	t.spans = append(t.spans, spanRec{ID: id, Parent: prev, Name: name, StartNs: start.Sub(t.t0).Nanoseconds()})
	t.parent = id
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.spans[id-1].DurNs = time.Since(start).Nanoseconds()
		t.parent = prev
		t.mu.Unlock()
	}
}

func (t *tracer) record(name string, start time.Time, d time.Duration, n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.sums[name]
	if s == nil {
		s = &spanSum{}
		t.sums[name] = s
	}
	s.Count++
	s.DurNs += d.Nanoseconds()
	s.N += n
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, spanRec{
			ID: int32(len(t.spans) + 1), Parent: t.parent, Name: name,
			StartNs: start.Sub(t.t0).Nanoseconds(), DurNs: d.Nanoseconds(), N: n,
		})
	}
}

// sum returns the totals recorded under name.
func (t *tracer) sum(name string) spanSum {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.sums[name]; s != nil {
		return *s
	}
	return spanSum{}
}

// perItemNs is the mean span time per work item recorded under name.
func (t *tracer) perItemNs(name string) float64 {
	s := t.sum(name)
	if s.N == 0 {
		return 0
	}
	return float64(s.DurNs) / float64(s.N)
}

// wrapBatch times a batch sink; each call is one span covering its
// reports.
func (t *tracer) wrapBatch(name string, sink func([]*gamelens.SessionReport)) func([]*gamelens.SessionReport) {
	return func(reports []*gamelens.SessionReport) {
		defer t.span(name, int64(len(reports)))()
		sink(reports)
	}
}
