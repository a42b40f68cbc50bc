package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
)

// TestChaosJobPanicLifecycle injects a panic into the job pool's run
// failpoint and asserts the panic is contained: the job lands in
// JobFailed (not JobCancelled, not lost) and the worker survives to run
// the next job.
func TestChaosJobPanicLifecycle(t *testing.T) {
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: "service/jobs/run", Mode: chaos.ModePanic, Count: 1},
	}})
	defer plan.Disable()

	j := NewJobs(1, 4, 16, 0)
	defer j.Close()

	doomed, err := j.Submit("sweep", func(context.Context) (any, error) {
		return "never reached", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-doomed.Done()
	if st := j.Snapshot(doomed); st.State != JobFailed {
		t.Fatalf("panicked job state = %s, want %s (err %q)", st.State, JobFailed, st.Error)
	}
	if _, jerr, ok := j.Result(doomed); !ok || jerr == nil {
		t.Fatalf("panicked job result: err=%v ok=%v, want a failure error", jerr, ok)
	}

	// The worker goroutine must have recovered: a second job still runs.
	next, err := j.Submit("sweep", func(context.Context) (any, error) {
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-next.Done()
	if res, jerr, _ := j.Result(next); jerr != nil || res != 42 {
		t.Fatalf("job after panic: result=%v err=%v, want 42", res, jerr)
	}
}

// TestChaosRegistrySingleflightBuildError injects a one-shot error into
// the Planner build failpoint and asserts the failed build is NOT cached:
// the caller that ran it gets the injected error, its concurrent waiters
// retry (one leads a fresh, healthy build) instead of inheriting the
// error, nobody wedges, and the next caller is served.
func TestChaosRegistrySingleflightBuildError(t *testing.T) {
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: "service/registry/build", Mode: chaos.ModeError, Count: 1},
	}})
	defer plan.Disable()

	r := NewRegistry(4)
	s, err := bench.ByName("demo8")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add(s); err != nil {
		t.Fatal(err)
	}

	// Several concurrent callers race the first (sabotaged) build. Only
	// the caller that ran it sees the injected error; the rest retry.
	const callers = 4
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Planner(context.Background(), "demo8")
		}(i)
	}
	wg.Wait()
	var injected *chaos.InjectedError
	failed := 0
	for _, err := range errs {
		if err != nil {
			if !errors.As(err, &injected) {
				t.Fatalf("build error %v is not the injected fault", err)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("injected build error reached no caller")
	}
	// Waiters of the failed build retried into a fresh, healthy build, so
	// failed < callers is the desired behaviour.

	// The failure must not be cached: the next call rebuilds and succeeds.
	p, err := r.Planner(context.Background(), "demo8")
	if err != nil || p == nil {
		t.Fatalf("rebuild after injected failure: planner=%v err=%v", p, err)
	}
	if got := r.Stats().Builds; got < 2 {
		t.Fatalf("builds = %d, want >= 2 (failed build + rebuild)", got)
	}
}

// TestChaosPlannerBuildPanic: a Planner build that panics answers its
// request 500 and leaves the SOC usable: the next request builds again
// and answers 200 instead of waiting out its deadline for a flight that
// never ends.
func TestChaosPlannerBuildPanic(t *testing.T) {
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: "service/registry/build", Mode: chaos.ModePanic, Count: 1},
	}})
	defer plan.Disable()

	svc, ts := newTestService(t, Config{Preload: []string{"d695"}, MaxTimeout: 3 * time.Second})
	req := map[string]any{"soc": "d695", "params": ParamsJSON{TAMWidth: 16}}
	for _, want := range []int{http.StatusInternalServerError, http.StatusOK} {
		if code, body := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/schedule", req); code != want {
			t.Fatalf("schedule: HTTP %d, want %d: %s", code, want, body)
		}
	}
	if got := svc.metrics.panics.Load(); got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
}

// TestChaosBatchItemPanic: a Planner build that panics on a batch worker
// goroutine fails only its own item, as the middleware answers a panic
// (500 internal); the batch answers 200 and the process survives. Which
// item fails depends on which build reaches the failpoint first.
func TestChaosBatchItemPanic(t *testing.T) {
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: "service/registry/build", Mode: chaos.ModePanic, Count: 1},
	}})
	defer plan.Disable()

	svc, ts := newTestService(t, Config{Preload: []string{"d695", "demo8"}, MaxTimeout: 3 * time.Second})
	items := []map[string]any{
		{"soc": "d695", "params": ParamsJSON{TAMWidth: 16}},
		{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16}},
	}
	code, body := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/batch", map[string]any{"items": items, "workers": 2})
	if code != http.StatusOK {
		t.Fatalf("batch: HTTP %d: %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for i, it := range resp.Items {
		switch {
		case it.Status == http.StatusOK && it.Error == nil:
		case it.Status == http.StatusInternalServerError && it.Error != nil &&
			it.Error.Code == CodeInternal && it.Error.Message == "internal error":
			failed++
		default:
			t.Fatalf("item %d = %+v, want 200 or 500 %s", i, it, CodeInternal)
		}
	}
	if failed != 1 || resp.Stats.OK != 1 || resp.Stats.Failed != 1 {
		t.Fatalf("%d items failed, stats %+v; want exactly one 500 and one 200", failed, resp.Stats)
	}
	if got := svc.metrics.panics.Load(); got != 1 {
		t.Fatalf("panics = %d, want 1", got)
	}
}

// TestChaosSweepJobBuildFault submits an async sweep whose Planner build
// eats a one-shot fault: the job ends failed (there is no retry layer),
// the failed build is not cached, and an identical resubmission succeeds.
func TestChaosSweepJobBuildFault(t *testing.T) {
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: "service/registry/build", Mode: chaos.ModeError, Count: 1},
	}})
	defer plan.Disable()

	_, ts := newTestService(t, Config{Preload: []string{"demo8"}})
	client := ts.Client()
	req := map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": 8, "widthHi": 12}}
	for _, want := range []JobState{JobFailed, JobDone} {
		code, body := doJSON(t, client, "POST", ts.URL+"/v1/sweep", req)
		if code != http.StatusAccepted {
			t.Fatalf("submit: HTTP %d: %s", code, body)
		}
		var sub struct {
			StatusURL string `json:"statusUrl"`
		}
		if err := json.Unmarshal(body, &sub); err != nil {
			t.Fatal(err)
		}
		if st := pollJob(t, client, ts.URL+sub.StatusURL, 10*time.Second); st.State != want {
			t.Fatalf("job state = %s (%q), want %s", st.State, st.Error, want)
		}
	}
	if got := plan.FireCount("service/registry/build"); got != 1 {
		t.Fatalf("build fault fired %d times, want 1", got)
	}
}

// TestChaosSweepSubmitBackPressure fills the job pool — its only worker
// held in a hung Planner build, its one queue slot taken — and asserts a
// further async sweep is shed with 429 + Retry-After, and that a sweep
// submitted after the pool closed answers 410 gone.
func TestChaosSweepSubmitBackPressure(t *testing.T) {
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: "service/registry/build", Mode: chaos.ModeHang},
	}})
	defer plan.Disable()

	svc, ts := newTestService(t, Config{Preload: []string{"demo8"}, JobWorkers: 1, JobQueue: 1})
	submit := func() *http.Response {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/sweep", "application/json",
			bytes.NewReader([]byte(`{"soc":"demo8","params":{"widthLo":8,"widthHi":12}}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := submit(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first sweep: HTTP %d, want 202", resp.StatusCode)
	}
	for plan.Hits("service/registry/build") == 0 { // the worker is busy
		time.Sleep(time.Millisecond)
	}
	if resp := submit(); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queued sweep: HTTP %d, want 202", resp.StatusCode)
	}
	resp := submit()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("sweep past a full queue: HTTP %d, Retry-After %q; want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	svc.Jobs().Close()
	if resp := submit(); resp.StatusCode != http.StatusGone {
		t.Fatalf("sweep after close: HTTP %d, want 410", resp.StatusCode)
	}
}

// TestChaosPlannerBuildDeadline hangs every Planner build: a request
// whose deadline ends while its Planner is still building answers the
// 504 deadline envelope, on the schedule and the sweep paths alike.
func TestChaosPlannerBuildDeadline(t *testing.T) {
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: "service/registry/build", Mode: chaos.ModeHang},
	}})
	defer plan.Disable()

	svc, ts := newTestService(t, Config{Preload: []string{"demo8"}})
	for _, path := range []string{"/v1/schedule", "/v1/effective"} {
		code, body := doJSON(t, ts.Client(), "POST", ts.URL+path,
			map[string]any{"soc": "demo8", "params": map[string]any{"tamWidth": 16, "timeoutMs": 20}})
		if code != http.StatusGatewayTimeout || !bytes.Contains(body, []byte(`"deadline"`)) {
			t.Fatalf("%s: HTTP %d (want 504 deadline): %s", path, code, body)
		}
	}
	if got := svc.metrics.timeouts.Load(); got != 2 {
		t.Fatalf("timeouts counter = %d, want 2", got)
	}
	if st := svc.Registry().Stats(); st.Planners != 0 {
		t.Fatalf("a timed-out build was cached: %+v", st)
	}
}

// TestChaosServiceRequestDeadline arms a delay at the service schedule
// failpoint so a request with timeoutMs=1 deterministically overruns its
// deadline, and asserts the 504 envelope plus the timeouts counter.
func TestChaosServiceRequestDeadline(t *testing.T) {
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: "service/schedule", Mode: chaos.ModeDelay, Delay: 200 * time.Millisecond},
	}})
	defer plan.Disable()

	svc, ts := newTestService(t, Config{Preload: []string{"demo8"}})
	client := ts.Client()
	code, body := doJSON(t, client, "POST", ts.URL+"/v1/schedule",
		map[string]any{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16, TimeoutMS: 1}})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out schedule: HTTP %d (want 504): %s", code, body)
	}
	if !bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("504 body %q is not an error envelope", body)
	}
	if got := svc.metrics.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
	if plan.Hits("service/schedule") == 0 {
		t.Fatal("service/schedule failpoint never fired")
	}
}

// TestChaosServiceAdmissionShed takes the only admission token and asserts
// scheduling requests are shed with 429 + Retry-After, the shed counter
// climbs, and capacity freeing up restores service.
func TestChaosServiceAdmissionShed(t *testing.T) {
	svc, ts := newTestService(t, Config{Preload: []string{"demo8"}, MaxConcurrent: 1})
	client := ts.Client()

	select {
	case svc.admission <- struct{}{}:
	default:
		t.Fatal("could not take the only admission slot")
	}
	req := map[string]any{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16}}
	resp, err := client.Post(ts.URL+"/v1/schedule", "application/json",
		bytes.NewReader(encodeIndented(t, req)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed request: HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 response missing Retry-After header")
	}
	<-svc.admission

	if code, body := doJSON(t, client, "POST", ts.URL+"/v1/schedule", req); code != http.StatusOK {
		t.Fatalf("post-shed schedule: HTTP %d: %s", code, body)
	}
	var m MetricsSnapshot
	if code, body := doJSON(t, client, "GET", ts.URL+"/metrics", nil); code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	} else if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", m.Shed)
	}
	if m.Backends == nil {
		t.Fatal("metrics snapshot missing backends map")
	}
}

// TestChaosReadyzDrain asserts /readyz flips from ready to draining when
// shutdown begins, so load balancers stop routing before Close.
func TestChaosReadyzDrain(t *testing.T) {
	svc, ts := newTestService(t, Config{})
	client := ts.Client()
	if svc.Registry() == nil || svc.Jobs() == nil {
		t.Fatal("Registry()/Jobs() accessors returned nil")
	}
	code, body := doJSON(t, client, "GET", ts.URL+"/readyz", nil)
	if code != http.StatusOK || !bytes.Contains(body, []byte("ready")) {
		t.Fatalf("readyz before drain: HTTP %d: %s", code, body)
	}
	svc.BeginDrain()
	code, body = doJSON(t, client, "GET", ts.URL+"/readyz", nil)
	if code != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("draining")) {
		t.Fatalf("readyz during drain: HTTP %d: %s", code, body)
	}
}

// TestChaosJobQueueWaitDeadline occupies the pool's only worker and
// asserts a queued job past the queue-wait deadline fails with
// ErrQueueWait instead of running stale, and that the queue counters
// (depth, timeouts) in JobsStats reflect it.
func TestChaosJobQueueWaitDeadline(t *testing.T) {
	j := NewJobs(1, 4, 16, 20*time.Millisecond)
	defer j.Close()

	block := make(chan struct{})
	running := make(chan struct{})
	var once sync.Once
	blocker, err := j.Submit("sweep", func(ctx context.Context) (any, error) {
		once.Do(func() { close(running) })
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-running

	stale, err := j.Submit("sweep", func(context.Context) (any, error) {
		return "should never run", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-stale.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("queued job not expired by the queue-wait deadline")
	}
	if st := j.Snapshot(stale); st.State != JobFailed || st.Error != ErrQueueWait.Error() {
		t.Fatalf("expired job: state=%s err=%q, want %s / %q", st.State, st.Error, JobFailed, ErrQueueWait)
	}
	if st := j.Stats(); st.QueueTimeouts != 1 {
		t.Fatalf("queue timeouts = %d, want 1", st.QueueTimeouts)
	}

	close(block)
	<-blocker.Done()
}

// TestChaosSweepWaitDeadline asserts a synchronous sweep honors the
// client's timeoutMs: a 1ms deadline on a full-range sweep (1..1024
// widths, far slower than 1ms) returns a clean 504 error envelope and
// bumps the timeouts counter instead of running to completion.
func TestChaosSweepWaitDeadline(t *testing.T) {
	svc, ts := newTestService(t, Config{Preload: []string{"demo8"}})
	client := ts.Client()
	code, body := doJSON(t, client, "POST", ts.URL+"/v1/sweep",
		map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": 1, "widthHi": 1024, "timeoutMs": 1}, "wait": true})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out sweep: HTTP %d (want 504): %s", code, body)
	}
	if !bytes.Contains(body, []byte(`"error"`)) {
		t.Fatalf("504 body %q is not an error envelope", body)
	}
	if got := svc.metrics.timeouts.Load(); got != 1 {
		t.Fatalf("timeouts counter = %d, want 1", got)
	}
}

// TestChaosNegativeTimeoutsRejected asserts negative client deadlines are
// rejected as validation errors, not silently clamped.
func TestChaosNegativeTimeoutsRejected(t *testing.T) {
	_, ts := newTestService(t, Config{Preload: []string{"demo8"}})
	client := ts.Client()
	for _, params := range []ParamsJSON{
		{TAMWidth: 16, TimeoutMS: -1},
		{TAMWidth: 16, BackendTimeoutMS: -1},
	} {
		code, body := doJSON(t, client, "POST", ts.URL+"/v1/schedule",
			map[string]any{"soc": "demo8", "params": params})
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("params %+v: HTTP %d (want 422): %s", params, code, body)
		}
	}
	for _, req := range []map[string]any{
		{"soc": "demo8", "params": map[string]any{"widthLo": 1, "widthHi": 8, "timeoutMs": -1}, "wait": true},
	} {
		code, body := doJSON(t, client, "POST", ts.URL+"/v1/sweep", req)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("sweep %+v: HTTP %d (want 422): %s", req, code, body)
		}
	}
	code, body := doJSON(t, client, "POST", ts.URL+"/v1/effective",
		map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": 1, "widthHi": 8, "timeoutMs": -1}})
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("effective with timeoutMs=-1: HTTP %d (want 422): %s", code, body)
	}
}
