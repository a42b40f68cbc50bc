package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
)

// traceEnvelope mirrors tracedResponse for decoding in tests.
type traceEnvelope struct {
	Trace  obs.TraceData   `json:"trace"`
	Result json.RawMessage `json:"result"`
}

// backendsResponse mirrors the GET /v1/backends document.
type backendsResponse struct {
	Backends []BackendInfo `json:"backends"`
}

// TestObservability drives a portfolio schedule through the full stack and
// checks every telemetry surface: X-Trace-Id, the ?debug=trace envelope,
// /v1/traces/{id}, /v1/backends, and the extended /metrics latency block.
func TestObservability(t *testing.T) {
	sched.ResetPortfolioHealth()
	t.Cleanup(sched.ResetPortfolioHealth)
	_, ts := newTestService(t, Config{Preload: []string{"demo8"}})
	client := ts.Client()
	reqBody := map[string]any{
		"soc":    "demo8",
		"params": map[string]any{"tamWidth": 16, "backend": "portfolio", "workers": 1},
	}

	// Plain request: the response body is the untouched schedule document
	// and the trace ID rides in the header.
	body, _ := json.Marshal(reqBody)
	resp, err := client.Post(ts.URL+"/v1/schedule/best", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	plain := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule status %d: %s", resp.StatusCode, plain)
	}
	traceID := resp.Header.Get("X-Trace-Id")
	if traceID == "" {
		t.Fatal("no X-Trace-Id header on schedule response")
	}

	// The retained trace is served by ID and its root is the route.
	code, raw := doJSON(t, client, "GET", ts.URL+"/v1/traces/"+traceID, nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s status %d: %s", traceID, code, raw)
	}
	var td obs.TraceData
	if err := json.Unmarshal(raw, &td); err != nil {
		t.Fatal(err)
	}
	if td.TraceID != traceID || td.Root.Name != "POST /v1/schedule/best" {
		t.Fatalf("trace = %s root %q", td.TraceID, td.Root.Name)
	}
	if len(td.Root.Children) == 0 {
		t.Fatal("schedule trace has no child spans; backend instrumentation missing")
	}
	if code, _ := doJSON(t, client, "GET", ts.URL+"/v1/traces/t-nonexistent", nil); code != http.StatusNotFound {
		t.Fatalf("unknown trace status %d, want 404", code)
	}

	// ?debug=trace wraps the same document in an envelope without changing
	// a byte of its JSON content, and the span tree is non-empty.
	code, raw = doJSON(t, client, "POST", ts.URL+"/v1/schedule/best?debug=trace", reqBody)
	if code != http.StatusOK {
		t.Fatalf("debug=trace status %d: %s", code, raw)
	}
	var env traceEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("envelope: %v", err)
	}
	if env.Trace.SpanCount() < 2 {
		t.Fatalf("debug trace has %d spans, want a tree", env.Trace.SpanCount())
	}
	var got, want any
	if err := json.Unmarshal(env.Result, &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(plain, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("debug=trace result differs from the plain response document")
	}

	// /v1/backends: every registered backend, sorted, with race records
	// and latency quantiles for the ones that ran.
	code, raw = doJSON(t, client, "GET", ts.URL+"/v1/backends", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/backends status %d: %s", code, raw)
	}
	var br backendsResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]BackendInfo, len(br.Backends))
	var names []string
	for _, b := range br.Backends {
		byName[b.Name] = b
		names = append(names, b.Name)
	}
	if !reflect.DeepEqual(names, sched.Backends()) {
		t.Fatalf("backend rows %v, want sorted %v", names, sched.Backends())
	}
	// Exactly one decided race: the second (identical) schedule request was
	// answered by the result cache, so no second portfolio race ran.
	for _, name := range []string{"classic", "rectpack"} {
		b := byName[name]
		if decided := b.Race.Won + b.Race.Lost; decided != 1 {
			t.Fatalf("%s decided races = %d, want 1 (repeat request is a cache hit)", name, decided)
		}
		if b.Race.WinRate < 0 || b.Race.WinRate > 1 {
			t.Fatalf("%s winRate = %v", name, b.Race.WinRate)
		}
		if b.Latency.Count < 1 {
			t.Fatalf("%s latency count = %d, want >= 1", name, b.Latency.Count)
		}
	}

	// /metrics serves one latency series per span name: the route's root
	// span, the backend spans and the pipeline stages.
	code, raw = doJSON(t, client, "GET", ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /metrics status %d", code)
	}
	var ms MetricsSnapshot
	if err := json.Unmarshal(raw, &ms); err != nil {
		t.Fatal(err)
	}
	if h := ms.Latency["POST /v1/schedule/best"]; h.Count < 2 || h.MaxNs < h.P50Ns {
		t.Fatalf("route histogram = %+v", h)
	}
	if h := ms.Latency["backend/portfolio"]; h.Count < 1 {
		t.Fatalf("portfolio backend histogram = %+v", h)
	}
	if ms.Cache.Hits < 1 || ms.Cache.Misses < 1 {
		t.Fatalf("cache stats = %+v, want the repeat request counted as a hit", ms.Cache)
	}
	if h := ms.Latency["registry/build"]; h.Count < 1 {
		t.Fatalf("registry/build histogram = %+v", h)
	}
	if ms.Registry.Hits < 1 {
		t.Fatalf("registry hits = %d, want >= 1 (second schedule reused the planner)", ms.Registry.Hits)
	}
	if ms.Backends["rectpack"].WinRate < 0 {
		t.Fatalf("metrics backends = %+v", ms.Backends)
	}
}

// TestUnmatchedRequestsShareOneSeries: requests the mux serves with none
// of its patterns — unknown paths, a wrong method, a path-cleaning
// redirect — share one "unmatched" latency series, so distinct paths
// cannot grow /metrics without bound.
func TestUnmatchedRequestsShareOneSeries(t *testing.T) {
	obs.ResetLatency()
	t.Cleanup(obs.ResetLatency)
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	serve := func(method, path string, want int) {
		t.Helper()
		rr := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rr, httptest.NewRequest(method, path, nil))
		if rr.Code != want {
			t.Fatalf("%s %s: HTTP %d, want %d", method, path, rr.Code, want)
		}
	}
	const unknown = 5000
	for i := 0; i < unknown; i++ {
		serve("GET", fmt.Sprintf("/no-such-route-%d", i), http.StatusNotFound)
	}
	serve("DELETE", "/v1/socs", http.StatusMethodNotAllowed)
	serve("GET", "/v1//socs", http.StatusMovedPermanently)
	serve("GET", "/v1/socs", http.StatusOK)

	lat := obs.SpanLatency()
	if got := lat["unmatched"].Count; got != unknown+2 {
		t.Fatalf("unmatched count = %d, want %d", got, unknown+2)
	}
	if got := lat["GET /v1/socs"].Count; got != 1 {
		t.Fatalf("GET /v1/socs count = %d, want 1 (the redirect is not the route's)", got)
	}
	if len(lat) != 2 {
		t.Fatalf("%d latency series, want 2: %v", len(lat), reflect.ValueOf(lat).MapKeys())
	}
}

// TestJobsShareOneSeries: async jobs for different SOCs all run under a
// "job/run" root span, whose kind (naming the SOC) is an attribute, so
// they share one latency series.
func TestJobsShareOneSeries(t *testing.T) {
	obs.ResetLatency()
	t.Cleanup(obs.ResetLatency)
	svc, ts := newTestService(t, Config{Preload: []string{"demo8", "d695"}})
	for _, soc := range []string{"demo8", "d695"} {
		code, body := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/sweep",
			map[string]any{"soc": soc, "params": map[string]any{"widthLo": 8, "widthHi": 9}})
		if code != http.StatusAccepted {
			t.Fatalf("submit %s: HTTP %d: %s", soc, code, body)
		}
		var sub struct {
			Job JobStatus `json:"job"`
		}
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		st := pollJob(t, ts.Client(), ts.URL+"/v1/jobs/"+sub.Job.ID, 30*time.Second)
		if st.State != JobDone {
			t.Fatalf("%s job: %s (%q)", soc, st.State, st.Error)
		}
		td, ok := svc.Tracer().Get(st.TraceID)
		if !ok || td.Root.Name != "job/run" || td.Root.Attrs["kind"] != "sweep "+soc {
			t.Fatalf("%s job trace root = %+v, want job/run with its kind as an attribute", soc, td.Root)
		}
	}
	var jobSeries []string
	for name := range obs.SpanLatency() {
		if strings.HasPrefix(name, "job") {
			jobSeries = append(jobSeries, name)
		}
	}
	if len(jobSeries) != 1 || jobSeries[0] != "job/run" || obs.SpanLatency()["job/run"].Count != 2 {
		t.Fatalf("job series %v, want one job/run series counting both jobs", jobSeries)
	}
}

// TestDebugTraceNonJSON pins the pass-through: a non-JSON answer (the
// gantt SVG) is never wrapped in the trace envelope.
func TestDebugTraceNonJSON(t *testing.T) {
	_, ts := newTestService(t, Config{Preload: []string{"demo8"}})
	body, _ := json.Marshal(map[string]any{
		"soc":    "demo8",
		"params": map[string]any{"tamWidth": 16},
	})
	resp, err := ts.Client().Post(ts.URL+"/v1/gantt?debug=trace", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	svg := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gantt status %d: %s", resp.StatusCode, svg)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "svg") {
		t.Fatalf("Content-Type = %q, want SVG pass-through", ct)
	}
	if !bytes.Contains(svg, []byte("<svg")) || bytes.Contains(svg, []byte(`"trace"`)) {
		t.Fatal("SVG body was wrapped or mangled by the trace envelope")
	}
}

// TestDebugTraceContentLength pins writeTraced's header copy: a route
// that sets Content-Length for its own document still answers
// ?debug=trace with the whole envelope, which is longer.
func TestDebugTraceContentLength(t *testing.T) {
	svc, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	doc := []byte(`{"makespan": 42}` + "\n")
	mux := http.NewServeMux()
	mux.HandleFunc("GET /sized", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(doc)))
		_, _ = w.Write(doc)
	})
	ts := httptest.NewServer(svc.middleware(mux))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/sized?debug=trace")
	if err != nil {
		t.Fatal(err)
	}
	raw := readAll(t, resp)
	var env traceEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("envelope: %v\n%s", err, raw)
	}
	var got, want bytes.Buffer
	if err := json.Compact(&got, env.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&want, doc); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() || env.Trace.Root.Name != "GET /sized" {
		t.Fatalf("envelope result %s under root span %q, want %s under \"GET /sized\"", got.String(), env.Trace.Root.Name, want.String())
	}
}

// TestMiddlewareDefaultStatus pins the statusWriter fix: a handler that
// completes without writing anything is net/http's implicit 200 and must
// be logged and counted as 200, never 0.
func TestMiddlewareDefaultStatus(t *testing.T) {
	var logBuf bytes.Buffer
	svc, err := New(Config{Logger: log.New(&logBuf, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /silent", func(w http.ResponseWriter, r *http.Request) {
		// Write nothing: net/http sends an implicit 200 on return.
	})
	h := svc.middleware(mux)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/silent", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("recorded code %d", rr.Code)
	}
	if got := logBuf.String(); !strings.Contains(got, "status=200") {
		t.Fatalf("log line %q does not report status=200", got)
	}
	if n := svc.metrics.status4xx.Load() + svc.metrics.status5xx.Load(); n != 0 {
		t.Fatalf("error counters moved on an implicit 200: %d", n)
	}
	if got := svc.metrics.requests.Load(); got != 1 {
		t.Fatalf("requests = %d, want 1", got)
	}
}

// readAll drains a response body, failing the test on error.
func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
