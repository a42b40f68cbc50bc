// Package obs mirrors the real telemetry package. The spanend analyzer
// exempts the obs package itself — its implementation and tests handle
// spans that are intentionally left open.
package obs

import (
	"context"
	"time"
)

// Span mirrors the real span handle.
type Span struct{}

// End mirrors the real span close, which returns the span's duration.
func (s *Span) End() time.Duration { return 0 }

// SetAttr mirrors the real attribute setter.
func (s *Span) SetAttr(k string, v any) {}

// Tracer mirrors the real trace factory.
type Tracer struct{}

// Start mirrors the real child-span opener.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{}
}

// StartTrace mirrors the real root-span opener.
func (t *Tracer) StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, &Span{}
}

// inside the obs package, an un-Ended span is fine (machinery and tests).
func internal(ctx context.Context) {
	_, sp := Start(ctx, "internal")
	sp.SetAttr("k", "v")
}
