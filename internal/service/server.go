package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/socfile"
)

// Admission and deadline bounds applied by New when Config leaves them
// unset.
const (
	// DefaultMaxConcurrent bounds scheduling-work requests in flight.
	DefaultMaxConcurrent = 64
	// DefaultMaxTimeout caps every request deadline, including requests
	// that ask for none.
	DefaultMaxTimeout = 60 * time.Second
)

// Config tunes a Server.
type Config struct {
	// PlannerCapacity bounds the Planner LRU (<= 0: DefaultPlannerCapacity).
	PlannerCapacity int
	// JobWorkers is the async worker pool size (<= 0: 1).
	JobWorkers int
	// JobQueue bounds the pending-job queue (<= 0: DefaultJobQueue).
	JobQueue int
	// JobRetained bounds retained finished jobs (<= 0: DefaultJobRetained).
	JobRetained int
	// JobQueueWait fails jobs still queued after this long (0:
	// DefaultJobQueueWait; < 0 disables the deadline).
	JobQueueWait time.Duration
	// MaxConcurrent bounds scheduling-work requests admitted at once;
	// excess requests are shed with 429 + Retry-After rather than queued
	// (<= 0: DefaultMaxConcurrent).
	MaxConcurrent int
	// MaxTimeout caps per-request deadlines: a request's params.timeoutMs
	// may shorten it but never extend past this (<= 0: DefaultMaxTimeout).
	MaxTimeout time.Duration
	// CacheBytes bounds the content-addressed result cache (total stored
	// document bytes; <= 0: DefaultCacheBytes).
	CacheBytes int64
	// Preload names built-in benchmark SOCs to register at startup; the
	// single entry "all" expands to every built-in.
	Preload []string
	// Logger receives request and panic logs; nil silences the server.
	Logger *log.Logger
}

// Server is the SOC test-scheduling service: a Planner registry, an async
// job pool, and the HTTP/JSON API wired together. Create it with New,
// mount Handler on an http.Server, and Close it on shutdown.
type Server struct {
	reg        *Registry
	jobs       *Jobs
	cache      *ResultCache
	metrics    Metrics
	tracer     *obs.Tracer
	admission  chan struct{} // one token per scheduling request in flight
	maxTimeout time.Duration
	draining   atomic.Bool
	log        *log.Logger
	handler    http.Handler
	start      time.Time
}

// builtinNames are the Preload "all" expansion.
var builtinNames = []string{"d695", "p22810like", "p34392like", "p93791like", "demo8"}

// New builds a Server and registers any preloaded SOCs.
func New(cfg Config) (*Server, error) {
	maxConcurrent := cfg.MaxConcurrent
	if maxConcurrent <= 0 {
		maxConcurrent = DefaultMaxConcurrent
	}
	maxTimeout := cfg.MaxTimeout
	if maxTimeout <= 0 {
		maxTimeout = DefaultMaxTimeout
	}
	s := &Server{
		reg:        NewRegistry(cfg.PlannerCapacity),
		jobs:       NewJobs(cfg.JobWorkers, cfg.JobQueue, cfg.JobRetained, cfg.JobQueueWait),
		cache:      NewResultCache(cfg.CacheBytes),
		tracer:     obs.NewTracer(0),
		admission:  make(chan struct{}, maxConcurrent),
		maxTimeout: maxTimeout,
		log:        cfg.Logger,
		start:      time.Now(),
	}
	s.jobs.SetTracer(s.tracer)
	names := cfg.Preload
	if len(names) == 1 && names[0] == "all" {
		names = builtinNames
	}
	for _, name := range names {
		soc, err := bench.ByName(name)
		if err != nil {
			s.jobs.Close()
			return nil, err
		}
		if _, err := s.reg.Add(soc); err != nil {
			s.jobs.Close()
			return nil, err
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleIndex)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/socs", s.handleSOCList)
	mux.HandleFunc("POST /v1/socs", s.handleSOCAdd)
	mux.HandleFunc("GET /v1/socs/{key}", s.handleSOCGet)
	mux.HandleFunc("POST /v1/schedule", func(w http.ResponseWriter, r *http.Request) { s.handleSchedule(w, r, false) })
	mux.HandleFunc("POST /v1/schedule/best", func(w http.ResponseWriter, r *http.Request) { s.handleSchedule(w, r, true) })
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/effective", s.handleEffective)
	mux.HandleFunc("POST /v1/gantt", s.handleGantt)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /v1/backends", s.handleBackends)
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	s.handler = s.middleware(mux)
	return s, nil
}

// Handler returns the service's root http.Handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Registry exposes the Planner registry (metrics, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Cache exposes the result cache (metrics, tests).
func (s *Server) Cache() *ResultCache { return s.cache }

// Jobs exposes the async job pool (metrics, tests).
func (s *Server) Jobs() *Jobs { return s.jobs }

// Tracer exposes the request tracer (tests, tools).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// BeginDrain flips /readyz to 503 so load balancers stop routing here;
// in-flight work is unaffected. Call it before http.Server.Shutdown.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close begins draining, cancels all running jobs, and drains the worker
// pool.
func (s *Server) Close() {
	s.BeginDrain()
	s.jobs.Close()
}

// ---- handlers ----

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	backends := "(params.backend: " + strings.Join(sched.Backends(), "|") + ")"
	writeJSON(w, http.StatusOK, map[string]any{
		"service": "socserved",
		"endpoints": []string{
			"GET  /healthz",
			"GET  /readyz",
			"GET  /metrics",
			"GET  /v1/socs",
			"POST /v1/socs                (.soc text or JSON body)",
			"GET  /v1/socs/{key}",
			"POST /v1/schedule            {soc, params}        " + backends,
			"POST /v1/schedule/best       {soc, params}        " + backends,
			"POST /v1/batch               {items: [{soc, params, best}], workers}",
			"POST /v1/sweep               {soc, params, wait}  (params.widthLo/widthHi/workers)",
			"POST /v1/effective           {soc, params}        (params.widthLo/widthHi/gamma/workers)",
			"POST /v1/gantt               {soc, params, best}",
			"GET  /v1/jobs/{id}",
			"GET  /v1/jobs/{id}/result",
			"POST /v1/jobs/{id}/cancel",
			"GET  /v1/backends",
			"GET  /v1/traces/{id}",
		},
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the load-balancer readiness probe: 200 while serving,
// 503 once BeginDrain/Close flipped the server into drain so new traffic
// is routed elsewhere while in-flight requests finish.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, MetricsSnapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.metrics.requests.Load(),
		Inflight:      s.metrics.inflight.Load(),
		Status4xx:     s.metrics.status4xx.Load(),
		Status5xx:     s.metrics.status5xx.Load(),
		Schedules:     s.metrics.schedules.Load(),
		Sweeps:        s.metrics.sweeps.Load(),
		Batches:       s.metrics.batches.Load(),
		Panics:        s.metrics.panics.Load(),
		Shed:          s.metrics.shed.Load(),
		Timeouts:      s.metrics.timeouts.Load(),
		Cache:         s.cache.Stats(),
		Registry:      s.reg.Stats(),
		Jobs:          s.jobs.Stats(),
		Backends:      sched.PortfolioStats(),
		Latency:       obs.SpanLatency(),
	})
}

// BackendInfo is one row of GET /v1/backends: a registered backend's race
// record and its observed scheduling latency.
type BackendInfo struct {
	Name string `json:"name"`
	// Race is the backend's cumulative portfolio-race record; a backend
	// that never raced reports zero counters.
	Race sched.BackendRaceStats `json:"race"`
	// Latency summarizes every observed scheduling run of this backend
	// (direct dispatch and portfolio racer legs alike): its "backend/<name>"
	// span series.
	Latency obs.HistSnapshot `json:"latency"`
}

// handleBackends answers GET /v1/backends: every registered backend with
// its race record and latency quantiles, sorted by name.
func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	race := sched.PortfolioStats()
	lat := obs.SpanLatency()
	out := make([]BackendInfo, 0, 4)
	for _, name := range sched.Backends() {
		out = append(out, BackendInfo{Name: name, Race: race[name], Latency: lat["backend/"+name]})
	}
	writeJSON(w, http.StatusOK, map[string]any{"backends": out})
}

// handleTraceGet serves a retained trace by ID (the X-Trace-Id of a past
// response, or a job's traceId).
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	td, ok := s.tracer.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown trace %q (ring retains the last %d)", r.PathValue("id"), obs.DefaultTraceCapacity))
		return
	}
	writeJSON(w, http.StatusOK, td)
}

func (s *Server) handleSOCList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"socs": s.reg.List()})
}

// handleSOCAdd accepts a .soc text body or (Content-Type: application/json)
// the SOCJSON wire form, registers the SOC, and returns its fingerprint.
func (s *Server) handleSOCAdd(w http.ResponseWriter, r *http.Request) {
	body := http.MaxBytesReader(w, r.Body, 8<<20)
	var parsed *repro.SOC
	if strings.Contains(r.Header.Get("Content-Type"), "json") {
		var sj SOCJSON
		if err := json.NewDecoder(body).Decode(&sj); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad JSON SOC: %w", err))
			return
		}
		soc, err := DecodeSOC(&sj)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		parsed = soc
	} else {
		soc, err := socfile.Parse(body)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, err)
			return
		}
		parsed = soc
	}
	fp, err := s.reg.Add(parsed)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"fingerprint": fp,
		"name":        parsed.Name,
		"cores":       len(parsed.Cores),
	})
}

func (s *Server) handleSOCGet(w http.ResponseWriter, r *http.Request) {
	soc, fp, err := s.reg.SOC(r.PathValue("key"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"fingerprint": fp, "soc": EncodeSOC(soc)})
}

// admit takes an admission slot, shedding the request with 429 and a
// Retry-After when the server is at MaxConcurrent — a bounded, fast "try
// again" beats queueing work a deadline will kill anyway. On success the
// caller must call the returned release.
func (s *Server) admit(w http.ResponseWriter) (release func(), ok bool) {
	select {
	case s.admission <- struct{}{}:
		return func() { <-s.admission }, true
	default:
		s.metrics.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			fmt.Errorf("service: at capacity (%d scheduling requests in flight)", cap(s.admission)))
		return nil, false
	}
}

// deadlineCtx derives a work context from parent: timeoutMS when given,
// always capped by the server's MaxTimeout. A batch item's parent is the
// batch context, so an item deadline can shorten but never outlive the
// batch's.
func (s *Server) deadlineCtx(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.maxTimeout
	if timeoutMS > 0 {
		if t := time.Duration(timeoutMS) * time.Millisecond; t < d {
			d = t
		}
	}
	return context.WithTimeout(parent, d)
}

// scheduleStatus maps a scheduling failure to its HTTP status: a missed
// deadline is the gateway-timeout family (and counted), everything else is
// the request's fault.
func (s *Server) scheduleStatus(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		s.metrics.timeouts.Add(1)
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

// handleSchedule answers POST /v1/schedule and /v1/schedule/best. The body
// is exactly what schedio.Save emits for the Planner's answer, so service
// responses and library results are interchangeable byte-for-byte — and
// because the result cache stores those exact bytes, a cache hit (X-Cache:
// hit) repeats the miss's body verbatim.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request, best bool) {
	req, ok := s.decodeRequest(w, r, 0)
	if !ok {
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	doc, hit, e := s.scheduleItem(r.Context(), req.SOC, req.Params, best)
	if e != nil {
		writeAPIErr(w, e)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", cacheLabel(hit))
	if _, err := w.Write(doc); err != nil {
		s.logf("write schedule: %v", err)
	}
}

// cacheLabel renders a hit flag for the X-Cache response header.
func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// scheduleItem is the one schedule path behind /v1/schedule,
// /v1/schedule/best and every /v1/batch item: under a deadline derived
// from ctx, resolve the SOC, fetch its Planner, check the preemption
// budgets, then serve the document through the result cache.
func (s *Server) scheduleItem(ctx context.Context, key string, p ParamsJSON, best bool) ([]byte, bool, *apiErr) {
	ctx, cancel := s.deadlineCtx(ctx, p.TimeoutMS)
	defer cancel()
	planner, fp, e := s.plannerFor(ctx, key)
	if e == nil {
		e = preemptionsErr(planner, p)
	}
	if e != nil {
		return nil, false, e
	}
	doc, hit, err := s.scheduleDoc(ctx, planner, fp, p, best)
	if err != nil {
		return nil, false, apiError(s.scheduleStatus(err), err)
	}
	s.metrics.schedules.Add(1)
	return doc, hit, nil
}

// scheduleDoc returns the serialized schedule document for (fp, params,
// mode) through the content-addressed result cache: on a miss it runs the
// scheduler and stores the exact bytes it serves, so every later hit (and
// every concurrent singleflight waiter) is byte-identical to the miss.
func (s *Server) scheduleDoc(ctx context.Context, planner *repro.Planner, fp string, p ParamsJSON, best bool) ([]byte, bool, error) {
	it := repro.BatchItem{Params: p.Options(), Best: best}
	return s.cache.Do(ctx, scheduleCacheKey(fp, it), func() ([]byte, error) {
		sch, err := s.runSchedule(ctx, planner, it)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := repro.SaveSchedule(&buf, sch); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// runSchedule runs a schedule request through the Planner's one dispatch
// (Planner.ScheduleItem): /v1/schedule/best always runs the selected
// backend's best mode, /v1/schedule does too for non-classic backends, and
// only the classic default keeps the single-run path.
// The work runs in its own goroutine so the handler honors ctx's deadline
// at once, although a classic run checks ctx only every 64 schedule
// events; on timeout the worker is abandoned (its result discarded) and
// stops at its next check, and its panics are contained here rather than
// in the HTTP middleware so an abandoned worker can never crash the
// process.
func (s *Server) runSchedule(ctx context.Context, planner *repro.Planner, it repro.BatchItem) (*repro.TestSchedule, error) {
	ctx, span := obs.Start(ctx, "service/schedule")
	defer span.End()
	if err := chaos.InjectContext(ctx, siteSchedule); err != nil {
		return nil, err
	}
	// A deadline already spent answers here, after the failpoint: once the
	// worker runs, the select below picks at random between a fast result
	// and an expired ctx.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	type result struct {
		sch *repro.TestSchedule
		err error
	}
	ch := make(chan result, 1) // buffered: an abandoned worker's send never blocks
	go func() {
		var res result
		defer func() {
			if rec := recover(); rec != nil {
				res = result{nil, fmt.Errorf("service: schedule panicked: %v", rec)}
			}
			ch <- res
		}()
		res.sch, res.err = planner.ScheduleItem(ctx, it)
	}()
	select {
	case res := <-ch:
		return res.sch, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// siteSchedule is the failpoint fired at the top of every scheduling
// request's work phase (after admission, before the planner runs).
const siteSchedule = "service/schedule"

// handleSweep answers POST /v1/sweep: synchronously under the request
// context when wait is set, otherwise as an async job whose result is
// served by /v1/jobs/{id}/result with the same bytes as the synchronous
// answer. The sweep bounds ride in the shared params (widthLo, widthHi,
// workers).
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r, allowWait)
	if !ok {
		return
	}
	fp, ok := s.reg.Resolve(req.SOC)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w %q", ErrUnknownSOC, req.SOC))
		return
	}
	if req.Wait {
		release, ok := s.admit(w)
		if !ok {
			return
		}
		defer release()
		ctx, cancel := s.deadlineCtx(r.Context(), req.Params.TimeoutMS)
		defer cancel()
		sw, e := s.sweep(ctx, fp, req.Params)
		if e != nil {
			writeAPIErr(w, e)
			return
		}
		writeJSON(w, http.StatusOK, sw)
		return
	}
	job, err := s.jobs.Submit("sweep "+req.SOC, func(ctx context.Context) (any, error) {
		sw, e := s.sweep(ctx, fp, req.Params)
		if e != nil {
			return nil, e.err
		}
		return sw, nil
	})
	if err != nil {
		// A full queue is back-pressure, not an outage: shed like admission
		// control does, with a Retry-After.
		code := http.StatusServiceUnavailable
		switch {
		case errors.Is(err, ErrClosed):
			code = http.StatusGone
		case errors.Is(err, ErrQueueFull):
			s.metrics.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			code = http.StatusTooManyRequests
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"job":       s.jobs.Snapshot(job),
		"statusUrl": "/v1/jobs/" + job.ID(),
		"resultUrl": "/v1/jobs/" + job.ID() + "/result",
		"cancelUrl": "/v1/jobs/" + job.ID() + "/cancel",
	})
}

// sweep runs a width sweep on key's Planner under ctx: the one path
// behind the synchronous /v1/sweep, /v1/effective and the async sweep
// job. Requests pass a deadline-bound ctx; a job's ctx ends only when the
// job is cancelled.
func (s *Server) sweep(ctx context.Context, key string, p ParamsJSON) (*repro.WidthSweep, *apiErr) {
	planner, _, e := s.plannerFor(ctx, key)
	if e != nil {
		return nil, e
	}
	sw, err := planner.SweepWidthsContext(ctx, p.WidthLo, p.WidthHi, p.Workers)
	if err != nil {
		return nil, apiError(s.scheduleStatus(err), err)
	}
	s.metrics.sweeps.Add(1)
	return sw, nil
}

// handleEffective runs a width sweep and picks the effective TAM width
// minimizing C(γ, W) — the paper's Problem 3 in one request. The sweep
// bounds and γ ride in the shared params (widthLo, widthHi, gamma,
// workers).
func (s *Server) handleEffective(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r, 0)
	if !ok {
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.deadlineCtx(r.Context(), req.Params.TimeoutMS)
	defer cancel()
	sw, e := s.sweep(ctx, req.SOC, req.Params)
	if e != nil {
		writeAPIErr(w, e)
		return
	}
	gamma := 0.5
	if req.Params.Gamma != nil {
		gamma = *req.Params.Gamma
	}
	eff, err := repro.PickEffectiveWidth(sw, gamma)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, eff)
}

// handleGantt schedules and renders the packed bin as SVG. Gantt answers
// are not cached: the cache stores schedule documents, and the SVG is
// cheap to re-render relative to the schedule run.
func (s *Server) handleGantt(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodeRequest(w, r, allowBest)
	if !ok {
		return
	}
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	ctx, cancel := s.deadlineCtx(r.Context(), req.Params.TimeoutMS)
	defer cancel()
	planner, _, e := s.plannerFor(ctx, req.SOC)
	if e == nil {
		e = preemptionsErr(planner, req.Params)
	}
	if e != nil {
		writeAPIErr(w, e)
		return
	}
	sch, err := s.runSchedule(ctx, planner, repro.BatchItem{Params: req.Params.Options(), Best: req.Best})
	if err != nil {
		writeError(w, s.scheduleStatus(err), err)
		return
	}
	s.metrics.schedules.Add(1)
	w.Header().Set("Content-Type", "image/svg+xml")
	if err := repro.GanttSVG(w, sch); err != nil {
		s.logf("write gantt: %v", err)
	}
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.Snapshot(job))
}

// handleJobResult serves a finished job's result document — for a sweep
// job, the same bytes as the synchronous /v1/sweep answer.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	result, err, done := s.jobs.Result(job)
	switch {
	case !done:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s", job.ID(), s.jobs.Snapshot(job).State))
	case err != nil:
		writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("job %s %s: %w", job.ID(), s.jobs.Snapshot(job).State, err))
	default:
		writeJSON(w, http.StatusOK, result)
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.Snapshot(job))
}

// plannerFor resolves a SOC key to its fingerprint and Planner: an
// unknown key is a 404, a deadline spent waiting for the build a 504, a
// failed build a 500. ctx carries the trace the build span lands on.
func (s *Server) plannerFor(ctx context.Context, key string) (*repro.Planner, string, *apiErr) {
	fp, ok := s.reg.Resolve(key)
	if !ok {
		return nil, "", apiError(http.StatusNotFound, fmt.Errorf("%w %q", ErrUnknownSOC, key))
	}
	planner, err := s.reg.Planner(ctx, fp)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, context.DeadlineExceeded) {
			status = s.scheduleStatus(err)
		}
		return nil, "", apiError(status, err)
	}
	return planner, fp, nil
}
