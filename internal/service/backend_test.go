package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro"
	"repro/internal/sched"
)

func backendTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	svc, err := New(Config{Preload: []string{"d695"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestScheduleBackendSelection(t *testing.T) {
	ts := backendTestServer(t)
	for _, backend := range []string{"rectpack", "anneal", "portfolio"} {
		for _, path := range []string{"/v1/schedule", "/v1/schedule/best"} {
			resp, raw := postJSON(t, ts, path, map[string]any{
				"soc":    "d695",
				"params": ParamsJSON{TAMWidth: 32, Workers: 1, Backend: backend},
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s backend=%s: HTTP %d: %s", path, backend, resp.StatusCode, raw)
			}
			if !bytes.Contains(raw, []byte(`"makespan"`)) {
				t.Fatalf("%s backend=%s: no makespan in response: %s", path, backend, raw)
			}
		}
	}
}

// TestScheduleBackendMatchesLibrary pins the service/library differential
// for the rectpack backend: the HTTP response bytes equal schedio.Save of
// the library Planner's answer.
func TestScheduleBackendMatchesLibrary(t *testing.T) {
	ts := backendTestServer(t)
	opts := repro.Options{TAMWidth: 32, Workers: 1, Backend: "rectpack"}
	planner, err := repro.NewPlanner(repro.BenchmarkSOC("d695"))
	if err != nil {
		t.Fatal(err)
	}
	sch, err := planner.ScheduleBest(opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := repro.SaveSchedule(&want, sch); err != nil {
		t.Fatal(err)
	}
	resp, raw := postJSON(t, ts, "/v1/schedule/best", map[string]any{
		"soc":    "d695",
		"params": ParamsJSON{TAMWidth: 32, Workers: 1, Backend: "rectpack"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	if !bytes.Equal(want.Bytes(), raw) {
		t.Fatalf("service bytes differ from library bytes:\nlibrary: %s\nservice: %s", want.Bytes(), raw)
	}
}

// TestPortfolioAnswerIndependentOfHistory: a portfolio answer depends only
// on its request. Earlier races whose racers time out change no later
// race's field, so a server that served them answers a portfolio request
// with the same bytes as a fresh server.
func TestPortfolioAnswerIndependentOfHistory(t *testing.T) {
	sched.ResetPortfolioHealth()
	t.Cleanup(sched.ResetPortfolioHealth)
	req := map[string]any{
		"soc":    "d695",
		"params": map[string]any{"tamWidth": 32, "backend": "portfolio", "workers": 1},
	}
	resp, want := postJSON(t, backendTestServer(t), "/v1/schedule/best", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh server: HTTP %d: %s", resp.StatusCode, want)
	}

	ts := backendTestServer(t)
	// Every racer may miss a 1 ms deadline, so these answers go unchecked.
	for _, w := range []int{20, 21, 22} {
		postJSON(t, ts, "/v1/schedule/best", map[string]any{
			"soc":    "d695",
			"params": map[string]any{"tamWidth": w, "backend": "portfolio", "workers": 1, "backendTimeoutMs": 1},
		})
	}
	resp, got := postJSON(t, ts, "/v1/schedule/best", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server with history: HTTP %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		// Decoded only to name the makespans; the byte comparison is the check.
		var g, w struct{ Makespan int64 }
		_ = json.Unmarshal(got, &g)
		_ = json.Unmarshal(want, &w)
		t.Fatalf("after three timed-out portfolio races the answer differs from a fresh server's: makespan %d, want %d", g.Makespan, w.Makespan)
	}
}

func TestScheduleUnknownBackend422(t *testing.T) {
	ts := backendTestServer(t)
	for _, path := range []string{"/v1/schedule", "/v1/schedule/best", "/v1/gantt"} {
		resp, raw := postJSON(t, ts, path, map[string]any{
			"soc":    "d695",
			"params": ParamsJSON{TAMWidth: 32, Backend: "no-such-backend"},
		})
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: HTTP %d, want 422: %s", path, resp.StatusCode, raw)
		}
		if !strings.Contains(string(raw), "unknown backend") {
			t.Errorf("%s: error body %s does not name the unknown backend", path, raw)
		}
	}
}

// TestScheduleAnnealSeedRoundTrip pins the seed knob on the wire: the
// request's seed is echoed back in the schedule document, and the same
// seed reproduces byte-identical responses (the anneal backend's
// determinism contract, end to end).
func TestScheduleAnnealSeedRoundTrip(t *testing.T) {
	ts := backendTestServer(t)
	body := map[string]any{
		"soc":    "d695",
		"params": ParamsJSON{TAMWidth: 32, Workers: 1, Backend: "anneal", Seed: 42},
	}
	resp, first := postJSON(t, ts, "/v1/schedule/best", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, first)
	}
	if !bytes.Contains(first, []byte(`"seed": 42`)) {
		t.Fatalf("response does not record the seed: %s", first)
	}
	resp, again := postJSON(t, ts, "/v1/schedule/best", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat: HTTP %d: %s", resp.StatusCode, again)
	}
	if !bytes.Equal(first, again) {
		t.Fatal("same seed, different schedule bytes")
	}
}

// TestSchedulePortfolioWithPreemptions: preemption budgets must not break
// the portfolio — rectpack declines them, preempt-rectpack and anneal
// serve them — and the decline is visible in /v1/backends.
func TestSchedulePortfolioWithPreemptions(t *testing.T) {
	sched.ResetPortfolioHealth()
	t.Cleanup(sched.ResetPortfolioHealth)
	ts := backendTestServer(t)
	resp, raw := postJSON(t, ts, "/v1/schedule", map[string]any{
		"soc": "d695",
		"params": map[string]any{
			"tamWidth": 32, "workers": 1, "backend": "portfolio",
			"maxPreemptions": map[string]int{"2": 1},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d: %s", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte(`"makespan"`)) {
		t.Fatalf("no makespan in response: %s", raw)
	}
	resp, raw = doGet(t, ts, "/v1/backends")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/backends: HTTP %d: %s", resp.StatusCode, raw)
	}
	var br backendsResponse
	if err := json.Unmarshal(raw, &br); err != nil {
		t.Fatal(err)
	}
	for _, b := range br.Backends {
		if b.Name == "rectpack" {
			if b.Race.Declined < 1 {
				t.Fatalf("rectpack declined = %d, want >= 1: %s", b.Race.Declined, raw)
			}
			return
		}
	}
	t.Fatalf("no rectpack row in /v1/backends: %s", raw)
}

func doGet(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func TestScheduleUnknownPreemptionCore422(t *testing.T) {
	ts := backendTestServer(t)
	resp, raw := postJSON(t, ts, "/v1/schedule", map[string]any{
		"soc":    "d695",
		"params": ParamsJSON{TAMWidth: 32, MaxPreemptions: map[int]int{9999: 2}},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("HTTP %d, want 422: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "unknown core 9999") {
		t.Fatalf("error body %s does not name the unknown core", raw)
	}
}
