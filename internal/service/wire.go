package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"repro"
	"repro/internal/sched"
)

// This file is the v1 wire contract: one shared params struct decoded and
// validated the same way on every route, one request envelope, and one
// machine-readable error envelope. Handlers contain no ad-hoc decoding.

// ParamsJSON is the one wire form of scheduling parameters, shared by
// every /v1 scheduling route (schedule, schedule/best, sweep, effective,
// gantt, batch items). Each route reads the fields it uses — tamWidth for
// schedules, widthLo/widthHi/gamma for sweeps and effective-width picks —
// and ignores the rest; validation is identical everywhere. Zero-valued
// fields take the library defaults, exactly as in the Go API. Backend
// selects the scheduling backend ("classic", "rectpack",
// "preempt-rectpack", "anneal", "portfolio"; empty = classic); unknown
// names are rejected with 422 (code "unknown_backend") before any
// scheduling work starts, and a backend that declines the parameters
// (rectpack under preemption budgets, say) answers 422 with code
// "backend_declined".
type ParamsJSON struct {
	TAMWidth        int         `json:"tamWidth,omitempty"`
	MaxWidth        int         `json:"maxWidth,omitempty"`
	Percent         int         `json:"percent,omitempty"`
	Delta           int         `json:"delta,omitempty"`
	PowerMax        int         `json:"powerMax,omitempty"`
	InsertSlack     int         `json:"insertSlack,omitempty"`
	MaxPreemptions  map[int]int `json:"maxPreemptions,omitempty"`
	DisableWidening bool        `json:"disableWidening,omitempty"`
	IgnoreHierarchy bool        `json:"ignoreHierarchy,omitempty"`
	Workers         int         `json:"workers,omitempty"`
	Backend         string      `json:"backend,omitempty"`
	// WidthLo, WidthHi bound a width sweep (sweep, effective). Zero values
	// take the library defaults.
	WidthLo int `json:"widthLo,omitempty"`
	WidthHi int `json:"widthHi,omitempty"`
	// Gamma is the time/volume trade-off weight γ in [0,1] (effective);
	// omitted means 0.5 (equal weight).
	Gamma *float64 `json:"gamma,omitempty"`
	// TimeoutMS is the request deadline in milliseconds, capped by the
	// server's MaxTimeout; a request past its deadline answers 504
	// (code "deadline"). Zero means the server cap alone applies. In a
	// batch item it bounds that item, not the whole batch.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
	// BackendTimeoutMS bounds each racer in a portfolio race (see
	// Options.BackendTimeout); zero means no per-racer deadline.
	BackendTimeoutMS int64 `json:"backendTimeoutMs,omitempty"`
	// Seed seeds randomized backends (anneal): the same seed always
	// produces byte-identical schedules. Zero means the library default;
	// deterministic backends ignore it.
	Seed int64 `json:"seed,omitempty"`
}

// Options converts the wire params to library options. TimeoutMS is not an
// option: it shapes the request context, not the scheduling work. The
// sweep-only fields (widthLo, widthHi, gamma) are likewise read by the
// sweep handlers, not the scheduler.
func (p ParamsJSON) Options() repro.Options {
	return repro.Options{
		TAMWidth:        p.TAMWidth,
		MaxWidth:        p.MaxWidth,
		Percent:         p.Percent,
		Delta:           p.Delta,
		PowerMax:        p.PowerMax,
		InsertSlack:     p.InsertSlack,
		MaxPreemptions:  p.MaxPreemptions,
		DisableWidening: p.DisableWidening,
		IgnoreHierarchy: p.IgnoreHierarchy,
		Workers:         p.Workers,
		Backend:         p.Backend,
		BackendTimeout:  time.Duration(p.BackendTimeoutMS) * time.Millisecond,
		Seed:            p.Seed,
	}
}

// MaxRequestWidth caps every client-controlled TAM width: sweep ranges,
// params.tamWidth, and params.maxWidth. The paper's studies stop at W=80
// and per-core widths at 64; anything past this is a typo or an attack —
// the optimizer designs every core's wrapper at every width up to
// maxWidth and the sweep allocates per-width state up front, so an
// unbounded width would let one request OOM or CPU-starve the whole
// server.
const MaxRequestWidth = 1024

// maxTimeoutMS is the largest deadline, in milliseconds, a time.Duration
// can hold; a larger timeoutMs or backendTimeoutMs would wrap around.
const maxTimeoutMS = math.MaxInt64 / int64(time.Millisecond)

// validate applies the route-independent parameter checks: width bounds
// (before any per-width work happens), deadlines in [0, maxTimeoutMS],
// and a registered backend name. It returns nil or the apiErr to serve.
func (p ParamsJSON) validate() *apiErr {
	if p.TAMWidth < 0 || p.TAMWidth > MaxRequestWidth || p.MaxWidth < 0 || p.MaxWidth > MaxRequestWidth {
		return apiError(http.StatusUnprocessableEntity,
			fmt.Errorf("params widths tamWidth=%d maxWidth=%d outside [0,%d]", p.TAMWidth, p.MaxWidth, MaxRequestWidth))
	}
	if p.WidthLo < 0 || p.WidthHi < 0 || p.WidthLo > MaxRequestWidth || p.WidthHi > MaxRequestWidth {
		return apiError(http.StatusUnprocessableEntity,
			fmt.Errorf("params sweep width range [%d,%d] outside [0,%d]", p.WidthLo, p.WidthHi, MaxRequestWidth))
	}
	if p.TimeoutMS < 0 || p.BackendTimeoutMS < 0 || p.TimeoutMS > maxTimeoutMS || p.BackendTimeoutMS > maxTimeoutMS {
		return apiError(http.StatusUnprocessableEntity,
			fmt.Errorf("params timeoutMs=%d backendTimeoutMs=%d outside [0,%d]", p.TimeoutMS, p.BackendTimeoutMS, maxTimeoutMS))
	}
	if _, err := sched.BackendByName(p.Backend); err != nil {
		return apiError(http.StatusUnprocessableEntity, err)
	}
	return nil
}

// Request is the one v1 request envelope: a SOC key (fingerprint or
// registered name), the shared params, and the two route-gated mode
// fields. Routes that do not accept a mode field reject it with 400
// rather than silently ignoring it.
type Request struct {
	// SOC is a fingerprint or a registered SOC name.
	SOC    string     `json:"soc"`
	Params ParamsJSON `json:"params"`
	// Best renders the grid-swept best schedule instead of a single run
	// (gantt only — the schedule routes pick the mode by path).
	Best bool `json:"best,omitempty"`
	// Wait runs the sweep synchronously on the request instead of
	// submitting an async job (sweep only).
	Wait bool `json:"wait,omitempty"`
}

// reqFields gates the optional Request fields per route.
type reqFields int

const (
	allowBest reqFields = 1 << iota
	allowWait
)

// decodeRequest decodes and validates one v1 request envelope, writing
// the error response itself on failure. This is the single decode path of
// every non-batch scheduling route.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, allow reqFields) (Request, bool) {
	var req Request
	if !decodeBody(w, r, &req) {
		return req, false
	}
	if req.Best && allow&allowBest == 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf(`field "best" is not accepted on this route (the route selects the mode)`))
		return req, false
	}
	if req.Wait && allow&allowWait == 0 {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf(`field "wait" is not accepted on this route`))
		return req, false
	}
	if e := req.Params.validate(); e != nil {
		writeAPIErr(w, e)
		return req, false
	}
	return req, true
}

// ---- error envelope ----

// Machine-readable error codes, carried in every error envelope as
// error.code. The HTTP status says how to react (retry, back off, fix the
// request); the code says what happened.
const (
	// CodeBadRequest: malformed body or out-of-range parameters (400/422).
	CodeBadRequest = "bad_request"
	// CodeNotFound: unknown SOC, job, or trace (404).
	CodeNotFound = "not_found"
	// CodeUnknownBackend: params.backend names no registered backend (422).
	CodeUnknownBackend = "unknown_backend"
	// CodeBackendDeclined: the named backend declines these parameters
	// (it cannot honor them honestly); pick another backend or the
	// portfolio (422).
	CodeBackendDeclined = "backend_declined"
	// CodeUnknownCore: a parameter references a core ID the SOC does not
	// define (422).
	CodeUnknownCore = "unknown_core"
	// CodeDeadline: the request (or batch item) overran its deadline (504).
	CodeDeadline = "deadline"
	// CodeShed: admission control or a full job queue shed the request;
	// honor Retry-After (429).
	CodeShed = "shed"
	// CodeQueueWait: an async job waited in the queue past the pool's
	// queue-wait deadline and was failed without running.
	CodeQueueWait = "queue_wait"
	// CodeCancelled: the work was cancelled before it finished.
	CodeCancelled = "cancelled"
	// CodeConflict: the resource is not in a state to answer (e.g. the
	// result of a still-running job) (409).
	CodeConflict = "conflict"
	// CodeGone: the server is shutting down and no longer accepts this
	// work (410).
	CodeGone = "gone"
	// CodeInternal: an unexpected server-side failure (5xx).
	CodeInternal = "internal"
)

// ErrorBody is the inside of the v1 error envelope: a machine-readable
// code plus the human-readable message. Every error response on every
// /v1 route (and every failed batch item) carries exactly this shape.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorEnvelope is the error response document: {"error":{code,message}}.
type errorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// errorCode maps a failure to its wire code: typed errors first (they
// know exactly what happened), then the HTTP status family.
func errorCode(status int, err error) string {
	var uce *sched.UnknownCoreError
	switch {
	case errors.Is(err, sched.ErrUnknownBackend):
		return CodeUnknownBackend
	case errors.Is(err, sched.ErrBackendDeclined):
		return CodeBackendDeclined
	case errors.As(err, &uce):
		return CodeUnknownCore
	case errors.Is(err, ErrQueueWait):
		return CodeQueueWait
	case errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, context.Canceled):
		return CodeCancelled
	case errors.Is(err, ErrQueueFull):
		return CodeShed
	case errors.Is(err, ErrUnknownSOC):
		return CodeNotFound
	}
	switch {
	case status == http.StatusNotFound:
		return CodeNotFound
	case status == http.StatusConflict:
		return CodeConflict
	case status == http.StatusGone:
		return CodeGone
	case status == http.StatusTooManyRequests:
		return CodeShed
	case status == http.StatusGatewayTimeout:
		return CodeDeadline
	case status >= 500:
		return CodeInternal
	default: // 400, 422, anything unmapped
		return CodeBadRequest
	}
}

// apiErr is a failure annotated with its HTTP status and wire code, so
// the same value can be written as a response or embedded as a per-item
// batch error.
type apiErr struct {
	status int
	code   string
	err    error
}

func (e *apiErr) Error() string { return e.err.Error() }

// body returns the wire form of the error.
func (e *apiErr) body() ErrorBody { return ErrorBody{Code: e.code, Message: e.err.Error()} }

// apiError wraps err with the code derived from the status and the error
// chain.
func apiError(status int, err error) *apiErr {
	return &apiErr{status: status, code: errorCode(status, err), err: err}
}

// writeAPIErr writes an annotated error as the v1 envelope.
func writeAPIErr(w http.ResponseWriter, e *apiErr) {
	writeJSON(w, e.status, errorEnvelope{Error: e.body()})
}

// writeError writes err as the v1 error envelope, deriving the code from
// the status and the error chain.
func writeError(w http.ResponseWriter, code int, err error) {
	writeAPIErr(w, apiError(code, err))
}

// ---- encoding helpers ----

// decodeBody decodes a JSON request body, writing a 400 on failure.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	// Trailing garbage after the JSON document is a malformed request.
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, fmt.Errorf("trailing data after JSON body"))
		return false
	}
	return true
}

// writeJSON writes v as indented JSON (two spaces, trailing newline — the
// same encoding schedio and the library tools use, so responses are
// byte-comparable with direct library output).
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
