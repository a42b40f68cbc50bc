package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// indentDoc re-indents an embedded batch result to top level, recovering
// the exact standalone document bytes (the batch envelope nests results,
// so their raw bytes carry the envelope's deeper indentation).
func indentDoc(t *testing.T, raw json.RawMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte('\n')
	return buf.Bytes()
}

// TestBatchPartialFailure is the batch contract test: a mixed batch with
// invalid items answers 200 with per-item statuses — each bad item fails
// alone with the same {code,message} body a per-request call carries, and
// every good item's document is byte-identical to the per-request answer.
func TestBatchPartialFailure(t *testing.T) {
	svc, ts := newTestService(t, Config{Preload: []string{"demo8", "d695"}})
	client := ts.Client()

	req := map[string]any{
		"items": []map[string]any{
			{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16}},
			{"soc": "no-such-soc", "params": ParamsJSON{TAMWidth: 16}},
			{"soc": "d695", "params": ParamsJSON{TAMWidth: 24, Backend: "rectpack"}},
			{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16, Backend: "warp-drive"}},
			{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16}}, // duplicate of item 0
		},
	}
	code, body := doJSON(t, client, "POST", ts.URL+"/v1/batch", req)
	if code != http.StatusOK {
		t.Fatalf("batch: HTTP %d: %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 5 {
		t.Fatalf("items = %d, want 5", len(resp.Items))
	}
	if resp.Stats.Items != 5 || resp.Stats.OK != 3 || resp.Stats.Failed != 2 {
		t.Fatalf("stats = %+v, want 3 ok / 2 failed", resp.Stats)
	}

	for i, it := range resp.Items {
		if it.Index != i {
			t.Fatalf("item %d reports index %d", i, it.Index)
		}
	}
	if it := resp.Items[1]; it.Status != http.StatusNotFound || it.Error == nil || it.Error.Code != CodeNotFound {
		t.Fatalf("unknown-soc item = %+v, want 404 %s", it, CodeNotFound)
	}
	if it := resp.Items[3]; it.Status != http.StatusUnprocessableEntity || it.Error == nil || it.Error.Code != CodeUnknownBackend {
		t.Fatalf("unknown-backend item = %+v, want 422 %s", it, CodeUnknownBackend)
	}

	// Identical items share one computation: the duplicate is a cache or
	// singleflight hit carrying the exact same bytes.
	if !bytes.Equal(resp.Items[0].Result, resp.Items[4].Result) {
		t.Fatal("duplicate items returned different documents")
	}
	if resp.Stats.CacheHits < 1 {
		t.Fatalf("stats = %+v, want the duplicate item counted as a cache hit", resp.Stats)
	}

	// Per-item documents are byte-identical to the per-request endpoints.
	for _, check := range []struct {
		item int
		body map[string]any
	}{
		{0, map[string]any{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16}}},
		{2, map[string]any{"soc": "d695", "params": ParamsJSON{TAMWidth: 24, Backend: "rectpack"}}},
	} {
		code, single := doJSON(t, client, "POST", ts.URL+"/v1/schedule", check.body)
		if code != http.StatusOK {
			t.Fatalf("per-request item %d: HTTP %d: %s", check.item, code, single)
		}
		if got := indentDoc(t, resp.Items[check.item].Result); !bytes.Equal(got, single) {
			t.Fatalf("item %d batch document differs from per-request /v1/schedule bytes", check.item)
		}
	}
	if got := svc.metrics.batches.Load(); got != 1 {
		t.Fatalf("batches counter = %d, want 1", got)
	}
}

// TestBatchWarmRepeat repeats an identical batch and asserts the warm
// pass is served entirely from the cache: every item flagged cached, the
// hit counter on /metrics grown, and the bytes unchanged.
func TestBatchWarmRepeat(t *testing.T) {
	_, ts := newTestService(t, Config{Preload: []string{"demo8"}})
	client := ts.Client()

	req := map[string]any{
		"items": []map[string]any{
			{"soc": "demo8", "params": ParamsJSON{TAMWidth: 12}},
			{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16}},
			{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16}, "best": true},
		},
		"workers": 2,
	}
	code, cold := doJSON(t, client, "POST", ts.URL+"/v1/batch", req)
	if code != http.StatusOK {
		t.Fatalf("cold batch: HTTP %d: %s", code, cold)
	}
	code, warm := doJSON(t, client, "POST", ts.URL+"/v1/batch", req)
	if code != http.StatusOK {
		t.Fatalf("warm batch: HTTP %d: %s", code, warm)
	}
	var coldResp, warmResp BatchResponse
	if err := json.Unmarshal(cold, &coldResp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(warm, &warmResp); err != nil {
		t.Fatal(err)
	}
	if coldResp.Stats.OK != 3 || warmResp.Stats.OK != 3 {
		t.Fatalf("ok counts: cold %+v warm %+v", coldResp.Stats, warmResp.Stats)
	}
	if warmResp.Stats.CacheHits != 3 {
		t.Fatalf("warm stats = %+v, want every item a cache hit", warmResp.Stats)
	}
	for i := range warmResp.Items {
		if !warmResp.Items[i].Cached {
			t.Fatalf("warm item %d not flagged cached", i)
		}
		if !bytes.Equal(warmResp.Items[i].Result, coldResp.Items[i].Result) {
			t.Fatalf("warm item %d bytes differ from the cold pass", i)
		}
	}

	code, body := doJSON(t, client, "GET", ts.URL+"/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	var m MetricsSnapshot
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Batches != 2 {
		t.Fatalf("batches = %d, want 2", m.Batches)
	}
	if m.Cache.Hits < 3 {
		t.Fatalf("cache stats = %+v, want >= 3 hits from the warm batch", m.Cache)
	}
}

// TestBatchValidation pins the request-level rejections: empty batches,
// oversized batches, and negative worker counts are 422; malformed JSON
// is 400 — all in the standard error envelope.
func TestBatchValidation(t *testing.T) {
	_, ts := newTestService(t, Config{Preload: []string{"demo8"}})
	client := ts.Client()

	tooMany := make([]map[string]any, MaxBatchItems+1)
	for i := range tooMany {
		tooMany[i] = map[string]any{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16}}
	}
	for _, tc := range []struct {
		name string
		body map[string]any
		want int
		code string
	}{
		{"empty", map[string]any{"items": []map[string]any{}}, http.StatusUnprocessableEntity, CodeBadRequest},
		{"too many items", map[string]any{"items": tooMany}, http.StatusUnprocessableEntity, CodeBadRequest},
		{"negative workers", map[string]any{"items": []map[string]any{{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16}}}, "workers": -1}, http.StatusUnprocessableEntity, CodeBadRequest},
		{"unknown field", map[string]any{"items": []map[string]any{}, "nope": 1}, http.StatusBadRequest, CodeBadRequest},
	} {
		code, body := doJSON(t, client, "POST", ts.URL+"/v1/batch", tc.body)
		if code != tc.want {
			t.Fatalf("%s: HTTP %d (want %d): %s", tc.name, code, tc.want, body)
		}
		var envelope errorEnvelope
		if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != tc.code {
			t.Fatalf("%s: body %q, want code %s", tc.name, body, tc.code)
		}
	}
}

// TestBatchDeadlineFillsEverySlot: once the batch deadline has passed,
// every item still gets its own answer — a 504 with code "deadline" — and
// none is left as an empty slot that the summary would count as ok.
func TestBatchDeadlineFillsEverySlot(t *testing.T) {
	_, ts := newTestService(t, Config{Preload: []string{"d695"}, MaxTimeout: time.Nanosecond})
	items := make([]map[string]any, 8)
	for i := range items {
		items[i] = map[string]any{"soc": "d695", "params": ParamsJSON{TAMWidth: 16 + i}}
	}
	code, body := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/batch", map[string]any{"items": items, "workers": 2})
	if code != http.StatusOK {
		t.Fatalf("batch: HTTP %d: %s", code, body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 8 || resp.Stats.Failed != 8 {
		t.Fatalf("%d items, stats %+v; want 8 items, all failed", len(resp.Items), resp.Stats)
	}
	for i, it := range resp.Items {
		if it.Status != http.StatusGatewayTimeout || it.Error == nil || it.Error.Code != CodeDeadline {
			t.Errorf("item %d = %+v, want 504 %s", i, it, CodeDeadline)
		}
	}
}
