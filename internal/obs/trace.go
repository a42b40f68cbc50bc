package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultTraceCapacity bounds a Tracer's completed-trace ring when
// NewTracer is given no capacity.
const DefaultTraceCapacity = 256

// Attr is one span attribute. Attributes are exported as a JSON object,
// so keys should be unique per span (a duplicate key keeps the last value).
type Attr struct {
	Key   string
	Value any
}

// Tracer roots span trees and retains the most recent completed traces in
// a bounded ring, keyed by trace ID. All methods are safe for concurrent
// use; the zero value is not usable — call NewTracer.
type Tracer struct {
	capacity int
	seq      atomic.Uint64 // trace-ID sequence; IDs are deterministic per Tracer

	mu     sync.Mutex
	clock  func() time.Time      // guarded by mu; nil = time.Now
	traces map[string]*TraceData // guarded by mu; completed traces by ID
	order  []string              // guarded by mu; completion order, oldest first
}

// NewTracer returns a tracer retaining the last capacity completed traces
// (<= 0 means DefaultTraceCapacity).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		capacity: capacity,
		traces:   make(map[string]*TraceData),
	}
}

// SetClock replaces the tracer's time source (tests only). All spans of
// the tracer read timestamps through it.
func (t *Tracer) SetClock(now func() time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.clock = now
}

// now reads the tracer's clock.
func (t *Tracer) now() time.Time {
	t.mu.Lock()
	c := t.clock
	t.mu.Unlock()
	if c == nil {
		return time.Now()
	}
	return c()
}

// StartTrace roots a new trace: the returned context carries the root
// span, so obs.Start calls below it create children. Ending the root
// publishes the trace into the ring. A nil *Tracer returns ctx unchanged
// and a nil span (tracing disabled), so callers need no conditionals.
// Like Start, every StartTrace pairs with a deferred End.
func (t *Tracer) StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sp := &Span{
		tracer: t,
		id:     fmt.Sprintf("t%08x", t.seq.Add(1)),
		name:   name,
		start:  t.now(),
	}
	sp.root = sp
	return context.WithValue(ctx, ctxKey{}, sp), sp
}

// Get returns a completed trace by ID. Traces are retrievable once their
// root span ended, until the ring evicts them.
func (t *Tracer) Get(id string) (TraceData, bool) {
	if t == nil {
		return TraceData{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	td, ok := t.traces[id]
	if !ok {
		return TraceData{}, false
	}
	return *td, true
}

// Len returns the number of completed traces currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.order)
}

// publish snapshots a finished root span into the ring, evicting the
// oldest trace beyond capacity.
func (t *Tracer) publish(root *Span) {
	td := &TraceData{
		TraceID: root.id,
		Root:    root.snapshot(root.start, root.endTime()),
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.traces[td.TraceID]; dup {
		return // double End on a root: first End wins
	}
	t.traces[td.TraceID] = td
	t.order = append(t.order, td.TraceID)
	for len(t.order) > t.capacity {
		delete(t.traces, t.order[0])
		t.order = t.order[1:]
	}
}

// Span is one timed operation in a trace. A nil *Span is a valid no-op
// (obs.Start returns one when tracing is off), so instrumented code calls
// SetAttr/End unconditionally. Spans are safe for concurrent use — racer
// goroutines append children to one shared parent.
type Span struct {
	tracer *Tracer
	root   *Span  // the trace's root span (self for the root)
	id     string // trace ID; set on the root span only
	name   string
	start  time.Time

	mu       sync.Mutex
	attrs    []Attr    // guarded by mu
	children []*Span   // guarded by mu
	end      time.Time // guarded by mu; zero while the span is open
}

// TraceID returns the ID of the trace this span belongs to ("" for a nil
// span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.root.id
}

// Name returns the span's name ("" for a nil span).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// child opens a sub-span.
func (s *Span) child(name string) *Span {
	c := &Span{tracer: s.tracer, root: s.root, name: name, start: s.tracer.now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetAttr attaches a key/value attribute to the span. No-op on a nil span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End closes the span and returns its duration. The first End wins: it
// records the duration into the process-wide histogram of the span's name
// (SpanLatency), the only place a duration is recorded, and ending the
// root span publishes the whole trace into its tracer's ring; children
// still open at that point — abandoned racers, say — are exported clamped
// to the root's end. A later End records nothing and returns the first
// End's duration. A nil span returns 0.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	now := s.tracer.now()
	s.mu.Lock()
	ended := !s.end.IsZero()
	if !ended {
		s.end = now
	}
	d := s.end.Sub(s.start)
	s.mu.Unlock()
	if !ended {
		spans.Observe(s.name, d)
		if s == s.root {
			s.tracer.publish(s)
		}
	}
	return d
}

// endTime returns the span's end timestamp (zero while open).
func (s *Span) endTime() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.end
}

// snapshot exports the span subtree relative to the trace's base time.
// Spans still open are clamped to rootEnd.
func (s *Span) snapshot(base, rootEnd time.Time) SpanData {
	s.mu.Lock()
	end := s.end
	if end.IsZero() {
		end = rootEnd
	}
	sd := SpanData{
		Name:    s.name,
		StartNs: s.start.Sub(base).Nanoseconds(),
		DurNs:   end.Sub(s.start).Nanoseconds(),
	}
	if len(s.attrs) > 0 {
		sd.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			sd.Attrs[a.Key] = a.Value
		}
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	if sd.DurNs < 0 {
		sd.DurNs = 0
	}
	for _, c := range children {
		sd.Children = append(sd.Children, c.snapshot(base, rootEnd))
	}
	return sd
}

// TraceData is one completed trace, as served by GET /v1/traces/{id} and
// the ?debug=trace response envelope.
type TraceData struct {
	TraceID string   `json:"traceId"`
	Root    SpanData `json:"root"`
}

// SpanData is the JSON export of one span: its start as an offset from
// the trace's start, its duration, attributes, and children.
type SpanData struct {
	Name     string         `json:"name"`
	StartNs  int64          `json:"startNs"`
	DurNs    int64          `json:"durNs"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []SpanData     `json:"children,omitempty"`
}

// SpanCount returns the number of spans in the trace.
func (td TraceData) SpanCount() int {
	return td.Root.count()
}

func (sd SpanData) count() int {
	n := 1
	for _, c := range sd.Children {
		n += c.count()
	}
	return n
}
