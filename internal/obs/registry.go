package obs

import (
	"sync"
	"time"
)

// Registry keys Histograms by name, creating them on first use. Recording
// through a held *Histogram is lock-free; the registry lock is only taken
// to resolve names. All methods are safe for concurrent use.
type Registry struct {
	mu    sync.RWMutex
	hists map[string]*Histogram // guarded by mu
}

// NewRegistry returns an empty histogram registry.
func NewRegistry() *Registry {
	return &Registry{hists: make(map[string]*Histogram)}
}

// Get returns the named histogram, creating it on first use. Callers on a
// hot path should hold the *Histogram rather than re-resolving the name.
func (r *Registry) Get(name string) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Observe records one duration into the named histogram.
func (r *Registry) Observe(name string, d time.Duration) {
	r.Get(name).Observe(d)
}

// Snapshot summarizes every histogram, keyed by name.
func (r *Registry) Snapshot() map[string]HistSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]HistSnapshot, len(r.hists))
	for name, h := range r.hists {
		out[name] = h.Snapshot()
	}
	return out
}

// Reset discards every histogram (tests and socbench -obs runs).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists = make(map[string]*Histogram)
}

// spans is the process-wide latency registry: Span.End records every
// span's duration here, under the span's name.
var spans = NewRegistry()

// SpanLatency summarizes the process-wide span histograms, keyed by span
// name.
func SpanLatency() map[string]HistSnapshot { return spans.Snapshot() }

// ResetLatency discards the process-wide span histograms (tests,
// socbench -obs, perfbench).
func ResetLatency() { spans.Reset() }
