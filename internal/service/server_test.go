package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/bench"
	"repro/internal/sched"
)

// newTestService spins up the full stack — registry, jobs, handlers,
// middleware — behind an httptest server.
func newTestService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// doJSON posts a JSON body and returns status + raw response bytes.
func doJSON(t *testing.T, client *http.Client, method, url string, body any) (int, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// encodeIndented reproduces writeJSON's encoding for byte comparison.
func encodeIndented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// directAnswers computes the library-side expected bodies for one SOC.
type directAnswers struct {
	schedule []byte // schedio bytes of Planner.Schedule
	best     []byte // schedio bytes of Planner.ScheduleBest
	sweep    []byte // indented JSON of Planner.SweepWidths
	eff      []byte // indented JSON of PickEffectiveWidth
	gantt    []byte // SVG of Planner.Schedule
}

func libraryAnswers(t *testing.T, name string, opts repro.Options, lo, hi int, gamma float64) directAnswers {
	t.Helper()
	s, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := repro.NewPlanner(s)
	if err != nil {
		t.Fatal(err)
	}
	var a directAnswers
	sch, err := p.Schedule(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repro.SaveSchedule(&buf, sch); err != nil {
		t.Fatal(err)
	}
	a.schedule = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := repro.GanttSVG(&buf, sch); err != nil {
		t.Fatal(err)
	}
	a.gantt = append([]byte(nil), buf.Bytes()...)
	best, err := p.ScheduleBest(opts)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := repro.SaveSchedule(&buf, best); err != nil {
		t.Fatal(err)
	}
	a.best = append([]byte(nil), buf.Bytes()...)
	sw, err := p.SweepWidths(lo, hi, 0)
	if err != nil {
		t.Fatal(err)
	}
	a.sweep = encodeIndented(t, sw)
	eff, err := repro.PickEffectiveWidth(sw, gamma)
	if err != nil {
		t.Fatal(err)
	}
	a.eff = encodeIndented(t, eff)
	return a
}

// TestServiceDifferential is the acceptance test: concurrent schedule,
// batch, sweep, effective-width, and Gantt requests against the service
// return bodies byte-identical to the library's direct Planner answers
// (batch items under the envelope's nesting rule), for a mix of SOC
// fingerprints at once. Batch items and single requests for one case share
// result-cache entries, so the storm also mixes the two on one cache. Run
// with -race in CI.
func TestServiceDifferential(t *testing.T) {
	_, ts := newTestService(t, Config{Preload: []string{"d695", "demo8"}, JobWorkers: 2})
	client := ts.Client()

	type socCase struct {
		name   string
		opts   repro.Options
		lo, hi int
		gamma  float64
		want   directAnswers
	}
	cases := []socCase{
		{name: "d695", opts: repro.Options{TAMWidth: 32, Percent: 10, Delta: 1}, lo: 24, hi: 36, gamma: 0.5},
		{name: "demo8", opts: repro.Options{TAMWidth: 24, Percent: 5}, lo: 8, hi: 24, gamma: 0.3},
	}
	for i := range cases {
		c := &cases[i]
		c.want = libraryAnswers(t, c.name, c.opts, c.lo, c.hi, c.gamma)
	}

	// check returns the first mismatch it finds, so the storm's goroutines
	// report it with t.Error rather than t.Fatal.
	check := func(c *socCase) error {
		params := ParamsJSON{TAMWidth: c.opts.TAMWidth, Percent: c.opts.Percent, Delta: c.opts.Delta}
		code, got := doJSON(t, client, "POST", ts.URL+"/v1/schedule",
			map[string]any{"soc": c.name, "params": params})
		if code != http.StatusOK {
			return fmt.Errorf("%s schedule: HTTP %d: %s", c.name, code, got)
		}
		if !bytes.Equal(got, c.want.schedule) {
			return fmt.Errorf("%s: /v1/schedule differs from Planner.Schedule bytes", c.name)
		}
		code, got = doJSON(t, client, "POST", ts.URL+"/v1/schedule/best",
			map[string]any{"soc": c.name, "params": params})
		if code != http.StatusOK {
			return fmt.Errorf("%s best: HTTP %d: %s", c.name, code, got)
		}
		if !bytes.Equal(got, c.want.best) {
			return fmt.Errorf("%s: /v1/schedule/best differs from Planner.ScheduleBest bytes", c.name)
		}
		code, got = doJSON(t, client, "POST", ts.URL+"/v1/batch", map[string]any{"items": []map[string]any{
			{"soc": c.name, "params": params},
			{"soc": c.name, "params": params, "best": true},
		}})
		if code != http.StatusOK {
			return fmt.Errorf("%s batch: HTTP %d: %s", c.name, code, got)
		}
		var batch BatchResponse
		if err := json.Unmarshal(got, &batch); err != nil {
			return fmt.Errorf("%s batch: %v", c.name, err)
		}
		if len(batch.Items) != 2 {
			return fmt.Errorf("%s batch: %d items, want 2", c.name, len(batch.Items))
		}
		for i, want := range [][]byte{c.want.schedule, c.want.best} {
			if it := batch.Items[i]; it.Status != http.StatusOK || !bytes.Equal(it.Result, nestedDoc(want)) {
				return fmt.Errorf("%s: /v1/batch item %d (HTTP %d) differs from the nested library bytes", c.name, i, it.Status)
			}
		}
		code, got = doJSON(t, client, "POST", ts.URL+"/v1/sweep",
			map[string]any{"soc": c.name, "params": map[string]any{"widthLo": c.lo, "widthHi": c.hi}, "wait": true})
		if code != http.StatusOK {
			return fmt.Errorf("%s sweep: HTTP %d: %s", c.name, code, got)
		}
		if !bytes.Equal(got, c.want.sweep) {
			return fmt.Errorf("%s: /v1/sweep differs from Planner.SweepWidths bytes", c.name)
		}
		code, got = doJSON(t, client, "POST", ts.URL+"/v1/effective",
			map[string]any{"soc": c.name, "params": map[string]any{"widthLo": c.lo, "widthHi": c.hi, "gamma": c.gamma}})
		if code != http.StatusOK {
			return fmt.Errorf("%s effective: HTTP %d: %s", c.name, code, got)
		}
		if !bytes.Equal(got, c.want.eff) {
			return fmt.Errorf("%s: /v1/effective differs from PickEffectiveWidth bytes", c.name)
		}
		code, got = doJSON(t, client, "POST", ts.URL+"/v1/gantt",
			map[string]any{"soc": c.name, "params": params})
		if code != http.StatusOK {
			return fmt.Errorf("%s gantt: HTTP %d: %s", c.name, code, got)
		}
		if !bytes.Equal(got, c.want.gantt) {
			return fmt.Errorf("%s: /v1/gantt differs from GanttSVG bytes", c.name)
		}
		return nil
	}

	// One sequential pass for clear failure messages...
	for i := range cases {
		if err := check(&cases[i]); err != nil {
			t.Fatal(err)
		}
	}
	// ...then the concurrent mixed-fingerprint storm.
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := check(&cases[g%len(cases)]); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
}

// TestServiceAsyncSweepJob asserts the async path: a submitted sweep job
// completes and its /result document is byte-identical to the synchronous
// /v1/sweep answer.
func TestServiceAsyncSweepJob(t *testing.T) {
	_, ts := newTestService(t, Config{Preload: []string{"demo8"}, JobWorkers: 2})
	client := ts.Client()

	code, sync := doJSON(t, client, "POST", ts.URL+"/v1/sweep",
		map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": 8, "widthHi": 20}, "wait": true})
	if code != http.StatusOK {
		t.Fatalf("sync sweep: HTTP %d: %s", code, sync)
	}

	code, body := doJSON(t, client, "POST", ts.URL+"/v1/sweep",
		map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": 8, "widthHi": 20}})
	if code != http.StatusAccepted {
		t.Fatalf("async sweep: HTTP %d: %s", code, body)
	}
	var sub struct {
		Job       JobStatus `json:"job"`
		StatusURL string    `json:"statusUrl"`
		ResultURL string    `json:"resultUrl"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	st := pollJob(t, client, ts.URL+sub.StatusURL, 10*time.Second)
	if st.State != JobDone {
		t.Fatalf("job state = %s (%s), want done", st.State, st.Error)
	}
	code, result := doJSON(t, client, "GET", ts.URL+sub.ResultURL, nil)
	if code != http.StatusOK {
		t.Fatalf("result: HTTP %d: %s", code, result)
	}
	if !bytes.Equal(result, sync) {
		t.Fatal("async job result differs from synchronous sweep bytes")
	}
}

// pollJob polls a job status URL until the job is terminal.
func pollJob(t *testing.T, client *http.Client, url string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		code, body := doJSON(t, client, "GET", url, nil)
		if code != http.StatusOK {
			t.Fatalf("poll %s: HTTP %d: %s", url, code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after %v", st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceCancelSweepJob is the acceptance cancellation test: a
// long-running sweep job is cancelled mid-flight, reaches the cancelled
// state promptly (which requires its sweep workers to have stopped and
// unwound), and its result endpoint reports the cancellation.
func TestServiceCancelSweepJob(t *testing.T) {
	_, ts := newTestService(t, Config{JobWorkers: 2})
	client := ts.Client()

	// The full 4..80 sweep of a 400-core SOC takes about 1.5 s on a 2-vCPU
	// host — far longer than the cancellation window asserted below. (The
	// benchmark SOCs sweep in tens of milliseconds.) One schedule request
	// builds its planner first, so the job's time is the sweep's.
	big := bench.Synth(bench.SynthConfig{Name: "big400", Cores: 400, Seed: 1})
	if code, body := doJSON(t, client, "POST", ts.URL+"/v1/socs", EncodeSOC(big)); code != http.StatusCreated {
		t.Fatalf("upload: HTTP %d: %s", code, body)
	}
	if code, body := doJSON(t, client, "POST", ts.URL+"/v1/schedule",
		map[string]any{"soc": "big400", "params": map[string]any{"tamWidth": 8}}); code != http.StatusOK {
		t.Fatalf("warm-up schedule: HTTP %d: %s", code, body)
	}
	code, body := doJSON(t, client, "POST", ts.URL+"/v1/sweep",
		map[string]any{"soc": "big400", "params": map[string]any{"widthLo": 4, "widthHi": 80, "workers": 2}})
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d: %s", code, body)
	}
	var sub struct {
		Job       JobStatus `json:"job"`
		StatusURL string    `json:"statusUrl"`
		ResultURL string    `json:"resultUrl"`
		CancelURL string    `json:"cancelUrl"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}

	// Wait until the job is actually running (so the cancel exercises the
	// worker-stopping path, not the queued-job shortcut).
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := doJSON(t, client, "GET", ts.URL+sub.StatusURL, nil)
		if code != http.StatusOK {
			t.Fatalf("poll: HTTP %d: %s", code, body)
		}
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == JobRunning {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job reached %s before it could be cancelled", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond) // let the sweep get into its stride

	cancelled := time.Now()
	code, body = doJSON(t, client, "POST", ts.URL+sub.CancelURL, nil)
	if code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d: %s", code, body)
	}
	st := pollJob(t, client, ts.URL+sub.StatusURL, 10*time.Second)
	if st.State != JobCancelled {
		t.Fatalf("state after cancel = %s (%s), want cancelled", st.State, st.Error)
	}
	if unwound := time.Since(cancelled); unwound > 5*time.Second {
		t.Fatalf("sweep workers took %v to stop after cancellation", unwound)
	}
	code, body = doJSON(t, client, "GET", ts.URL+sub.ResultURL, nil)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("result of cancelled job: HTTP %d: %s", code, body)
	}
	if !strings.Contains(string(body), "cancel") {
		t.Fatalf("result error does not mention cancellation: %s", body)
	}
}

// TestServiceUploadSOC uploads the same SOC as .soc text and as JSON and
// asserts both land on the canonical fingerprint, address schedules, and
// match repro.Fingerprint.
func TestServiceUploadSOC(t *testing.T) {
	_, ts := newTestService(t, Config{})
	client := ts.Client()

	s := bench.Demo().Clone()
	s.Name = "uploaded"
	wantFP := repro.Fingerprint(s)

	var socText bytes.Buffer
	if err := repro.WriteSOC(&socText, s); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(ts.URL+"/v1/socs", "text/plain", bytes.NewReader(socText.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload .soc: HTTP %d: %s", resp.StatusCode, body)
	}
	var up struct {
		Fingerprint string `json:"fingerprint"`
		Name        string `json:"name"`
		Cores       int    `json:"cores"`
	}
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatal(err)
	}
	if up.Fingerprint != wantFP || up.Name != "uploaded" || up.Cores != len(s.Cores) {
		t.Fatalf("upload = %+v, want fingerprint %s", up, wantFP)
	}

	// The JSON wire form of the same SOC must deduplicate onto the same
	// fingerprint.
	code, body2 := doJSON(t, client, "POST", ts.URL+"/v1/socs", EncodeSOC(s))
	if code != http.StatusCreated {
		t.Fatalf("upload JSON: HTTP %d: %s", code, body2)
	}
	var up2 struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body2, &up2); err != nil {
		t.Fatal(err)
	}
	if up2.Fingerprint != wantFP {
		t.Fatalf("JSON upload fingerprint %s != .soc upload %s", up2.Fingerprint, wantFP)
	}

	// Addressing by fingerprint works end to end.
	code, sched := doJSON(t, client, "POST", ts.URL+"/v1/schedule",
		map[string]any{"soc": wantFP, "params": ParamsJSON{TAMWidth: 16}})
	if code != http.StatusOK {
		t.Fatalf("schedule by fingerprint: HTTP %d: %s", code, sched)
	}

	// And the stored SOC round-trips through GET /v1/socs/{key}.
	code, got := doJSON(t, client, "GET", ts.URL+"/v1/socs/"+wantFP, nil)
	if code != http.StatusOK {
		t.Fatalf("get soc: HTTP %d: %s", code, got)
	}
	var stored struct {
		Fingerprint string  `json:"fingerprint"`
		SOC         SOCJSON `json:"soc"`
	}
	if err := json.Unmarshal(got, &stored); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSOC(&stored.SOC)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatal("stored SOC does not round-trip through the JSON wire form")
	}

	// A JSON upload whose name smuggles grammar lines (a fingerprint
	// forgery attempt) is rejected, not registered.
	forged := bench.Demo().Clone()
	forged.Name = "x\nPowerMax 100"
	code, body3 := doJSON(t, client, "POST", ts.URL+"/v1/socs", EncodeSOC(forged))
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("forged-name upload: HTTP %d (want 422): %s", code, body3)
	}
}

// TestSOCJSONRoundTrip asserts Encode/Decode are lossless over every
// built-in benchmark SOC (scan and BIST cores, hierarchy, constraints).
func TestSOCJSONRoundTrip(t *testing.T) {
	socs := append(bench.All(), bench.Demo())
	for _, s := range socs {
		got, err := DecodeSOC(EncodeSOC(s))
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("%s: JSON wire form is not lossless", s.Name)
		}
	}
}

// TestServiceErrors covers the error mapping: unknown SOCs, malformed
// bodies, invalid parameters, unknown jobs.
func TestServiceErrors(t *testing.T) {
	_, ts := newTestService(t, Config{Preload: []string{"demo8"}})
	client := ts.Client()
	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown soc", "POST", "/v1/schedule", map[string]any{"soc": "nope", "params": ParamsJSON{TAMWidth: 16}}, http.StatusNotFound},
		{"zero width", "POST", "/v1/schedule", map[string]any{"soc": "demo8", "params": ParamsJSON{TAMWidth: 0}}, http.StatusUnprocessableEntity},
		{"unknown field", "POST", "/v1/schedule", map[string]any{"soc": "demo8", "nope": 1}, http.StatusBadRequest},
		{"best field on /v1/schedule", "POST", "/v1/schedule", map[string]any{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16}, "best": true}, http.StatusBadRequest},
		{"unknown job", "GET", "/v1/jobs/job-999999", nil, http.StatusNotFound},
		{"cancel unknown job", "POST", "/v1/jobs/job-999999/cancel", nil, http.StatusNotFound},
		{"bad gamma", "POST", "/v1/effective", map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": 8, "widthHi": 12, "gamma": 1.5}}, http.StatusUnprocessableEntity},
		{"bad sweep range", "POST", "/v1/sweep", map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": 9, "widthHi": 3}, "wait": true}, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		code, body := doJSON(t, client, tc.method, ts.URL+tc.path, tc.body)
		if code != tc.want {
			t.Fatalf("%s: HTTP %d (want %d): %s", tc.name, code, tc.want, body)
		}
		var envelope struct {
			Error ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code == "" || envelope.Error.Message == "" {
			t.Fatalf("%s: error body %q is not a {code,message} error envelope", tc.name, body)
		}
	}

	// Malformed raw body (not valid JSON at all).
	resp, err := client.Post(ts.URL+"/v1/schedule", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestServiceHealthAndMetrics smoke-tests the operational endpoints.
func TestServiceHealthAndMetrics(t *testing.T) {
	_, ts := newTestService(t, Config{Preload: []string{"demo8"}})
	client := ts.Client()
	code, body := doJSON(t, client, "GET", ts.URL+"/healthz", nil)
	if code != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: HTTP %d: %s", code, body)
	}
	if code, _ = doJSON(t, client, "POST", ts.URL+"/v1/schedule",
		map[string]any{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16}}); code != http.StatusOK {
		t.Fatalf("schedule: HTTP %d", code)
	}
	code, body = doJSON(t, client, "GET", ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	var m MetricsSnapshot
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Requests < 2 || m.Schedules != 1 || m.Registry.SOCs != 1 || m.Registry.Builds != 1 {
		t.Fatalf("metrics snapshot %+v inconsistent with traffic", m)
	}
	if _, body = doJSON(t, client, "GET", ts.URL+"/", nil); !bytes.Contains(body, []byte("socserved")) {
		t.Fatalf("index: %s", body)
	}
}

// TestServiceIndexListsBackends asserts the index advertises every
// registered backend as a params.backend choice.
func TestServiceIndexListsBackends(t *testing.T) {
	_, ts := newTestService(t, Config{})
	code, body := doJSON(t, ts.Client(), "GET", ts.URL+"/", nil)
	var index struct {
		Endpoints []string `json:"endpoints"`
	}
	if err := json.Unmarshal(body, &index); code != http.StatusOK || err != nil {
		t.Fatalf("index: HTTP %d (%v): %s", code, err, body)
	}
	for _, route := range []string{"POST /v1/schedule ", "POST /v1/schedule/best "} {
		var choices []string
		for _, e := range index.Endpoints {
			if _, list, ok := strings.Cut(e, "params.backend: "); ok && strings.HasPrefix(e, route) {
				choices = strings.Split(strings.TrimSuffix(list, ")"), "|")
			}
		}
		for _, name := range sched.Backends() {
			if !slices.Contains(choices, name) {
				t.Errorf("%q advertises backends %v, missing %q", route, choices, name)
			}
		}
	}
}

// TestServiceSOCListReportsPlanner asserts GET /v1/socs reports whether
// each SOC's Planner is built and cached: false before first use, true
// after it, and false again once the one-slot LRU evicted it.
func TestServiceSOCListReportsPlanner(t *testing.T) {
	_, ts := newTestService(t, Config{Preload: []string{"demo8", "d695"}, PlannerCapacity: 1})
	client := ts.Client()
	for _, step := range []struct {
		schedule string // SOC scheduled before listing ("": none)
		want     map[string]bool
	}{
		{"", map[string]bool{"demo8": false, "d695": false}},
		{"demo8", map[string]bool{"demo8": true, "d695": false}},
		{"d695", map[string]bool{"demo8": false, "d695": true}},
	} {
		if step.schedule != "" {
			if code, body := doJSON(t, client, "POST", ts.URL+"/v1/schedule",
				map[string]any{"soc": step.schedule, "params": ParamsJSON{TAMWidth: 16}}); code != http.StatusOK {
				t.Fatalf("schedule %s: HTTP %d: %s", step.schedule, code, body)
			}
		}
		code, body := doJSON(t, client, "GET", ts.URL+"/v1/socs", nil)
		var list struct {
			SOCs []SOCInfo `json:"socs"`
		}
		if err := json.Unmarshal(body, &list); code != http.StatusOK || err != nil {
			t.Fatalf("list: HTTP %d (%v): %s", code, err, body)
		}
		got := make(map[string]bool)
		for _, info := range list.SOCs {
			got[info.Name] = info.Planner
		}
		if !reflect.DeepEqual(got, step.want) {
			t.Fatalf("after scheduling %q: planners %v, want %v", step.schedule, got, step.want)
		}
	}
}

// TestServiceSweepRangeCap asserts that absurd client-chosen width ranges
// are rejected up front with a 422 instead of allocating per-width sweep
// state (an unbounded widthHi could OOM the process before any per-width
// validation ran).
func TestServiceSweepRangeCap(t *testing.T) {
	_, ts := newTestService(t, Config{Preload: []string{"demo8"}, JobWorkers: 1})
	client := ts.Client()

	for _, tc := range []struct {
		path string
		body map[string]any
	}{
		{"/v1/sweep", map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": 1, "widthHi": 2_000_000_000}, "wait": true}},
		{"/v1/sweep", map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": 1, "widthHi": MaxRequestWidth + 1}}},
		{"/v1/sweep", map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": -5, "widthHi": 8}, "wait": true}},
		{"/v1/effective", map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": 1, "widthHi": 2_000_000_000}}},
		{"/v1/schedule", map[string]any{"soc": "demo8", "params": map[string]any{"tamWidth": 2_000_000_000}}},
		{"/v1/schedule/best", map[string]any{"soc": "demo8", "params": map[string]any{"tamWidth": 16, "maxWidth": MaxRequestWidth + 1}}},
		{"/v1/gantt", map[string]any{"soc": "demo8", "params": map[string]any{"tamWidth": -3}}},
	} {
		code, body := doJSON(t, client, "POST", ts.URL+tc.path, tc.body)
		if code != http.StatusUnprocessableEntity {
			t.Errorf("%s %v: HTTP %d (want 422): %s", tc.path, tc.body, code, body)
		}
	}

	// In-range requests still work, including the zero-value defaults.
	code, body := doJSON(t, client, "POST", ts.URL+"/v1/sweep",
		map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": 8, "widthHi": 12}, "wait": true})
	if code != http.StatusOK {
		t.Errorf("in-range sweep: HTTP %d: %s", code, body)
	}
}
