package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
)

// Metrics holds the service's request counters. Snapshot-able without
// locks; served by GET /metrics.
type Metrics struct {
	requests  atomic.Int64
	inflight  atomic.Int64
	status4xx atomic.Int64
	status5xx atomic.Int64
	schedules atomic.Int64
	sweeps    atomic.Int64
	batches   atomic.Int64
	panics    atomic.Int64
	shed      atomic.Int64 // requests rejected 429 by admission control
	timeouts  atomic.Int64 // requests that hit their deadline (504)
}

// MetricsSnapshot is the JSON form of the counters plus registry/job
// state, served by GET /metrics. Backends carries every backend's
// cumulative portfolio-race record (races won, lost, failed, timed out
// and declined, and the win rate); Latency carries one latency histogram
// per span name (obs.SpanLatency): the routes' root spans (mux patterns,
// plus "unmatched"), "backend/<name>", the pipeline stages and the job
// and batch-item spans.
type MetricsSnapshot struct {
	UptimeSeconds float64                           `json:"uptimeSeconds"`
	Requests      int64                             `json:"requests"`
	Inflight      int64                             `json:"inflight"`
	Status4xx     int64                             `json:"status4xx"`
	Status5xx     int64                             `json:"status5xx"`
	Schedules     int64                             `json:"schedules"`
	Sweeps        int64                             `json:"sweeps"`
	Batches       int64                             `json:"batches"`
	Panics        int64                             `json:"panics"`
	Shed          int64                             `json:"shed"`
	Timeouts      int64                             `json:"timeouts"`
	Cache         CacheStats                        `json:"cache"`
	Registry      RegistryStats                     `json:"registry"`
	Jobs          JobsStats                         `json:"jobs"`
	Backends      map[string]sched.BackendRaceStats `json:"backends"`
	Latency       map[string]obs.HistSnapshot       `json:"latency"`
}

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Status returns the response status for accounting. A handler that
// returned without writing anything left net/http's implicit 200 in
// place, so an unwritten response reports 200, not 0.
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// responseRecorder buffers a handler's response so the middleware can
// wrap it in a trace envelope afterwards (?debug=trace).
type responseRecorder struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func newResponseRecorder() *responseRecorder {
	return &responseRecorder{header: make(http.Header)}
}

func (rr *responseRecorder) Header() http.Header { return rr.header }

func (rr *responseRecorder) WriteHeader(code int) {
	if rr.status == 0 {
		rr.status = code
	}
}

func (rr *responseRecorder) Write(b []byte) (int, error) {
	if rr.status == 0 {
		rr.status = http.StatusOK
	}
	return rr.buf.Write(b)
}

// tracedResponse is the ?debug=trace envelope: the request's span tree
// plus the exact response document the handler produced.
type tracedResponse struct {
	Trace  obs.TraceData   `json:"trace"`
	Result json.RawMessage `json:"result"`
}

// middleware wraps the API mux with panic recovery, structured request
// logging, the request counters, and per-request tracing: every request
// runs under a root span (ID echoed in X-Trace-Id, tree retained for
// GET /v1/traces/{id}) whose End records the route's latency and the
// logged duration, and ?debug=trace returns the handler's JSON answer
// wrapped in a trace envelope. A panic in a handler becomes a 500 with a
// JSON body instead of tearing down the connection state.
//
// The root span, and with it the latency series, is named after the mux
// pattern that serves the request, so /v1/jobs/job-000042 and
// /v1/jobs/job-000007 share "GET /v1/jobs/{id}". Every request the mux
// answers itself is "unmatched": 404 and 405 come with no pattern, and a
// redirect with a handler of the mux's own rather than one of the
// HandlerFuncs New registers. So the series stay bounded by the route
// table whatever paths clients send.
func (s *Server) middleware(mux *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests.Add(1)
		s.metrics.inflight.Add(1)
		defer s.metrics.inflight.Add(-1)

		h, route := mux.Handler(r)
		if _, registered := h.(http.HandlerFunc); !registered || route == "" {
			route = "unmatched"
		}
		ctx, span := s.tracer.StartTrace(r.Context(), route)
		traceID := span.TraceID()
		if span != nil {
			span.SetAttr("path", r.URL.Path)
			w.Header().Set("X-Trace-Id", traceID)
			r = r.WithContext(ctx)
		}

		var rec *responseRecorder
		sw := &statusWriter{ResponseWriter: w}
		if span != nil && r.URL.Query().Get("debug") == "trace" {
			rec = newResponseRecorder()
			sw = &statusWriter{ResponseWriter: rec}
		}
		defer func() {
			if p := recover(); p != nil {
				s.metrics.panics.Add(1)
				s.logf("msg=panic method=%s path=%s trace=%s err=%q\n%s",
					r.Method, r.URL.Path, traceID, fmt.Sprint(p), debug.Stack())
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, fmt.Errorf("internal error"))
				}
			}
			status := sw.Status()
			switch {
			case status >= 500:
				s.metrics.status5xx.Add(1)
			case status >= 400:
				s.metrics.status4xx.Add(1)
			}
			span.SetAttr("status", status)
			dur := span.End()
			s.logf("method=%s path=%s status=%d dur=%s trace=%s",
				r.Method, r.URL.Path, status, dur.Round(time.Microsecond), traceID)
			if rec != nil {
				s.writeTraced(w, rec, traceID)
			}
		}()
		mux.ServeHTTP(sw, r)
	})
}

// writeTraced replays a buffered response, wrapping a JSON document in
// the tracedResponse envelope now that the root span has ended and the
// full tree is retrievable. Non-JSON answers (the gantt SVG) pass through
// unwrapped — the trace is still reachable via X-Trace-Id. A
// Content-Length the handler set is dropped: it counts the handler's
// body, not the longer envelope, and net/http frames what is written.
func (s *Server) writeTraced(w http.ResponseWriter, rec *responseRecorder, traceID string) {
	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	rec.header.Del("Content-Length")
	keys := make([]string, 0, len(rec.header))
	for k := range rec.header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range rec.header[k] {
			w.Header().Add(k, v)
		}
	}
	td, ok := s.tracer.Get(traceID)
	if !ok || !strings.Contains(rec.header.Get("Content-Type"), "json") {
		w.WriteHeader(status)
		_, _ = w.Write(rec.buf.Bytes())
		return
	}
	result := json.RawMessage("null")
	if rec.buf.Len() > 0 {
		result = json.RawMessage(rec.buf.Bytes())
	}
	writeJSON(w, status, tracedResponse{Trace: td, Result: result})
}

// logf logs through the configured logger; a nil logger silences the
// service (tests, benchmarks).
func (s *Server) logf(format string, args ...any) {
	if s.log != nil {
		s.log.Printf(format, args...)
	}
}
