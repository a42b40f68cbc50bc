// Package obs is the repository's stdlib-only telemetry layer:
// deterministic request tracing and lock-free latency histograms, threaded
// through the scheduler, the backend race, and the HTTP service.
//
// Tracing: a Tracer roots one Span tree per unit of work (an HTTP request,
// an async job) and keeps the most recent completed traces in a bounded
// ring so GET /v1/traces/{id} can serve them after the fact. Child spans
// are created with Start(ctx, name); when the context carries no span,
// Start returns a nil *Span whose methods are all no-ops, so instrumented
// hot paths cost one context lookup when nothing is tracing them. Trace
// IDs are sequential per Tracer (deterministic, grep-able) and the clock
// is injectable, so tests can pin exact durations.
//
// Histograms: Histogram is a log-linear bucketed latency histogram —
// recording is a handful of atomic adds, snapshotting estimates
// p50/p90/p99 within ±12.5% — and Registry keys histograms by name.
// Spans are the only timer: Span.End records every span's duration into
// one process-wide registry keyed by span name, which the service serves
// as the /metrics latency block and socbench -obs prints (SpanLatency).
// Span names are therefore series names, so they must come from a
// bounded set — constants, mux patterns, registered backends and
// failpoints — never from request data.
//
// Nothing here influences scheduling output: telemetry observes the
// byte-deterministic layers, it never feeds back into them, so the golden
// corpus is byte-identical with tracing and histograms enabled.
package obs

import "context"

// ctxKey carries the active *Span through a context.
type ctxKey struct{}

// FromContext returns the span carried by ctx, or nil (including for a
// nil ctx). A nil *Span is valid: all its methods are no-ops.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// Start opens a child span under the span carried by ctx and returns the
// derived context plus the child. When ctx carries no span (tracing is
// off for this call chain) or ctx is nil, it returns ctx unchanged and a
// nil *Span — the caller's `defer span.End()` is then a no-op, so
// instrumentation sites need no conditionals. Every Start must be paired
// with a deferred End in the same function (enforced by the soclint
// spanend analyzer).
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.child(name)
	return context.WithValue(ctx, ctxKey{}, sp), sp
}
