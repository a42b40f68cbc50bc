package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestErrorEnvelopeAllRoutes is the wire-contract table: every /v1 route,
// driven into each of its failure modes, answers the single envelope
// {"error":{"code","message"}} with the documented machine-readable code.
// A 200 row is a request beside a rejection that must still be served.
func TestErrorEnvelopeAllRoutes(t *testing.T) {
	_, ts := newTestService(t, Config{Preload: []string{"demo8", "d695"}})
	client := ts.Client()

	sched16 := ParamsJSON{TAMWidth: 16}
	cases := []struct {
		name   string
		method string
		path   string
		body   any
		status int
		code   string
	}{
		// 400 bad_request: malformed or route-violating envelopes.
		{"schedule unknown field", "POST", "/v1/schedule", map[string]any{"soc": "demo8", "nope": 1}, http.StatusBadRequest, CodeBadRequest},
		{"schedule best field", "POST", "/v1/schedule", map[string]any{"soc": "demo8", "params": sched16, "best": true}, http.StatusBadRequest, CodeBadRequest},
		{"schedule wait field", "POST", "/v1/schedule", map[string]any{"soc": "demo8", "params": sched16, "wait": true}, http.StatusBadRequest, CodeBadRequest},
		{"best wait field", "POST", "/v1/schedule/best", map[string]any{"soc": "demo8", "params": sched16, "wait": true}, http.StatusBadRequest, CodeBadRequest},
		{"effective best field", "POST", "/v1/effective", map[string]any{"soc": "demo8", "params": sched16, "best": true}, http.StatusBadRequest, CodeBadRequest},
		{"gantt wait field", "POST", "/v1/gantt", map[string]any{"soc": "demo8", "params": sched16, "wait": true}, http.StatusBadRequest, CodeBadRequest},
		{"batch unknown field", "POST", "/v1/batch", map[string]any{"items": []any{}, "nope": 1}, http.StatusBadRequest, CodeBadRequest},

		// 404 not_found: unknown SOCs, jobs, traces.
		{"schedule unknown soc", "POST", "/v1/schedule", map[string]any{"soc": "ghost", "params": sched16}, http.StatusNotFound, CodeNotFound},
		{"best unknown soc", "POST", "/v1/schedule/best", map[string]any{"soc": "ghost", "params": sched16}, http.StatusNotFound, CodeNotFound},
		{"sweep unknown soc", "POST", "/v1/sweep", map[string]any{"soc": "ghost", "params": map[string]any{"widthLo": 8, "widthHi": 12}, "wait": true}, http.StatusNotFound, CodeNotFound},
		{"effective unknown soc", "POST", "/v1/effective", map[string]any{"soc": "ghost", "params": map[string]any{"widthLo": 8, "widthHi": 12}}, http.StatusNotFound, CodeNotFound},
		{"gantt unknown soc", "POST", "/v1/gantt", map[string]any{"soc": "ghost", "params": sched16}, http.StatusNotFound, CodeNotFound},
		{"soc get unknown", "GET", "/v1/socs/ghost", nil, http.StatusNotFound, CodeNotFound},
		{"job get unknown", "GET", "/v1/jobs/job-999999", nil, http.StatusNotFound, CodeNotFound},
		{"job result unknown", "GET", "/v1/jobs/job-999999/result", nil, http.StatusNotFound, CodeNotFound},
		{"job cancel unknown", "POST", "/v1/jobs/job-999999/cancel", nil, http.StatusNotFound, CodeNotFound},
		{"trace unknown", "GET", "/v1/traces/t-999999", nil, http.StatusNotFound, CodeNotFound},

		// 422 unknown_backend / bad_request: parameter rejections.
		{"schedule bad backend", "POST", "/v1/schedule", map[string]any{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16, Backend: "warp"}}, http.StatusUnprocessableEntity, CodeUnknownBackend},
		{"gantt bad backend", "POST", "/v1/gantt", map[string]any{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16, Backend: "warp"}}, http.StatusUnprocessableEntity, CodeUnknownBackend},
		{"schedule width cap", "POST", "/v1/schedule", map[string]any{"soc": "demo8", "params": ParamsJSON{TAMWidth: MaxRequestWidth + 1}}, http.StatusUnprocessableEntity, CodeBadRequest},
		{"sweep width cap", "POST", "/v1/sweep", map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": 1, "widthHi": MaxRequestWidth + 1}, "wait": true}, http.StatusUnprocessableEntity, CodeBadRequest},
		{"effective bad gamma", "POST", "/v1/effective", map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": 8, "widthHi": 12, "gamma": 1.5}}, http.StatusUnprocessableEntity, CodeBadRequest},
		{"schedule negative timeout", "POST", "/v1/schedule", map[string]any{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16, TimeoutMS: -1}}, http.StatusUnprocessableEntity, CodeBadRequest},
		// Deadlines past what a time.Duration holds: the products wrap
		// to a deadline in the past, and to a 0.45 ms one.
		{"schedule timeout overflow", "POST", "/v1/schedule", map[string]any{"soc": "d695", "params": ParamsJSON{TAMWidth: 32, TimeoutMS: 9223372036855}}, http.StatusUnprocessableEntity, CodeBadRequest},
		{"best timeout overflow", "POST", "/v1/schedule/best", map[string]any{"soc": "d695", "params": ParamsJSON{TAMWidth: 32, TimeoutMS: 18446744073710}}, http.StatusUnprocessableEntity, CodeBadRequest},
		{"portfolio backend timeout overflow", "POST", "/v1/schedule", map[string]any{"soc": "d695", "params": ParamsJSON{TAMWidth: 32, Backend: "portfolio", BackendTimeoutMS: 18446744073710}}, http.StatusUnprocessableEntity, CodeBadRequest},
		// A one-year deadline fits and is honored.
		{"schedule one-year timeout", "POST", "/v1/schedule", map[string]any{"soc": "d695", "params": ParamsJSON{TAMWidth: 32, TimeoutMS: 365 * 24 * 3600 * 1000}}, http.StatusOK, ""},
		{"batch empty", "POST", "/v1/batch", map[string]any{"items": []any{}}, http.StatusUnprocessableEntity, CodeBadRequest},

		// 422 unknown_core: preemption budgets for cores the SOC lacks.
		{"schedule bad preemption core", "POST", "/v1/schedule", map[string]any{"soc": "demo8", "params": map[string]any{"tamWidth": 16, "maxPreemptions": map[string]int{"999": 1}}}, http.StatusUnprocessableEntity, CodeUnknownCore},
		{"gantt bad preemption core", "POST", "/v1/gantt", map[string]any{"soc": "demo8", "params": map[string]any{"tamWidth": 16, "maxPreemptions": map[string]int{"999": 1}}}, http.StatusUnprocessableEntity, CodeUnknownCore},
		// The unknown core is reported before rectpack may decline the budget.
		{"rectpack bad preemption core", "POST", "/v1/schedule", map[string]any{"soc": "demo8", "params": map[string]any{"tamWidth": 16, "backend": "rectpack", "maxPreemptions": map[string]int{"999": 1}}}, http.StatusUnprocessableEntity, CodeUnknownCore},

		// 422 backend_declined: a directly-named backend honestly refusing
		// parameters outside its regime (rectpack under preemption budgets,
		// preempt-rectpack without any).
		{"schedule declined rectpack", "POST", "/v1/schedule", map[string]any{"soc": "demo8", "params": map[string]any{"tamWidth": 16, "backend": "rectpack", "maxPreemptions": map[string]int{"1": 1}}}, http.StatusUnprocessableEntity, CodeBackendDeclined},
		{"best declined preempt-rectpack", "POST", "/v1/schedule/best", map[string]any{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16, Backend: "preempt-rectpack"}}, http.StatusUnprocessableEntity, CodeBackendDeclined},

		// 504 deadline: a 1ms budget on a full-range synchronous sweep.
		{"sweep deadline", "POST", "/v1/sweep", map[string]any{"soc": "demo8", "params": map[string]any{"widthLo": 1, "widthHi": 1024, "timeoutMs": 1}, "wait": true}, http.StatusGatewayTimeout, CodeDeadline},
	}
	for _, tc := range cases {
		code, body := doJSON(t, client, tc.method, ts.URL+tc.path, tc.body)
		if code != tc.status {
			t.Errorf("%s: HTTP %d (want %d): %s", tc.name, code, tc.status, body)
			continue
		}
		if code == http.StatusOK {
			continue
		}
		var envelope errorEnvelope
		if err := json.Unmarshal(body, &envelope); err != nil {
			t.Errorf("%s: body %q is not the error envelope: %v", tc.name, body, err)
			continue
		}
		if envelope.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q (message %q)", tc.name, envelope.Error.Code, tc.code, envelope.Error.Message)
		}
		if envelope.Error.Message == "" {
			t.Errorf("%s: empty error message", tc.name)
		}
		// The envelope is the whole body: exactly one top-level key.
		var top map[string]json.RawMessage
		if err := json.Unmarshal(body, &top); err != nil || len(top) != 1 {
			t.Errorf("%s: body %q carries keys beyond the envelope", tc.name, body)
		}
	}
}

// TestErrorCodeSheds covers the back-pressure codes: admission-control
// shedding answers 429 with code "shed" and a Retry-After header.
func TestErrorCodeSheds(t *testing.T) {
	svc, ts := newTestService(t, Config{Preload: []string{"demo8"}, MaxConcurrent: 1})
	client := ts.Client()

	// Hold the only admission token, then watch a request get shed.
	select {
	case svc.admission <- struct{}{}:
	default:
		t.Fatal("could not take the only admission slot")
	}
	defer func() { <-svc.admission }()

	req, err := http.NewRequest("POST", ts.URL+"/v1/schedule",
		strings.NewReader(`{"soc":"demo8","params":{"tamWidth":16}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed request: HTTP %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response has no Retry-After")
	}
	var envelope errorEnvelope
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != CodeShed {
		t.Fatalf("shed body %q, want code %s", body, CodeShed)
	}
}
