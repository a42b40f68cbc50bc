package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// BenchmarkServiceScheduleD695 measures a full service round-trip — HTTP
// request decode, registry hit on a warm Planner, scheduler run, schedio
// response encode — for a single d695 schedule at W=32. The gap between
// this and BenchmarkSingleSchedule-style library numbers is the service
// overhead per request.
func BenchmarkServiceScheduleD695(b *testing.B) {
	svc, err := New(Config{Preload: []string{"d695"}})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	body, err := json.Marshal(map[string]any{
		"soc":    "d695",
		"params": ParamsJSON{TAMWidth: 32, Percent: 10, Delta: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()
	do := func() {
		resp, err := client.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
	}
	do() // warm the Planner outside the timed region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
}

// BenchmarkServiceBatchCold measures one cold POST /v1/batch round trip
// through httptest: 8 d695 items at W 12 to 40, each on one worker,
// against a fresh service per op, so every item misses the result cache
// and is scheduled. Building the service and its d695 Planner, and
// closing it, is not timed.
func BenchmarkServiceBatchCold(b *testing.B) {
	var items []BatchItemJSON
	for w := 12; w <= 40; w += 4 {
		items = append(items, BatchItemJSON{SOC: "d695", Params: ParamsJSON{TAMWidth: w, Workers: 1}})
	}
	body, err := json.Marshal(BatchRequest{Items: items, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc, err := New(Config{Preload: []string{"d695"}})
		if err != nil {
			b.Fatal(err)
		}
		// Preload only registers the SOC; the Planner is built on first use.
		if _, err := svc.Registry().Planner(context.Background(), "d695"); err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(svc.Handler())
		b.StartTimer()
		resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
		b.StopTimer()
		ts.Close()
		svc.Close()
		b.StartTimer()
	}
}

// BenchmarkServiceBatchWarm measures one warm POST /v1/batch round trip
// through httptest: hot-mix's hot batch, 8 items over demo8, d695 and
// p93791like at W 24 to 48, every one a result-cache hit. It times the
// request decode, the admission, eight cache lookups, the envelope write
// and the client's read of the answer.
func BenchmarkServiceBatchWarm(b *testing.B) {
	svc, err := New(Config{Preload: []string{"demo8", "d695", "p93791like"}})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	w32 := ParamsJSON{TAMWidth: 32, Percent: 10, Delta: 1, Workers: 1}
	w24, w48 := ParamsJSON{TAMWidth: 24, Workers: 1}, ParamsJSON{TAMWidth: 48, Workers: 1}
	body, err := json.Marshal(BatchRequest{Workers: 1, Items: []BatchItemJSON{
		{SOC: "demo8", Params: w24}, {SOC: "d695", Params: w24}, {SOC: "p93791like", Params: w24},
		{SOC: "demo8", Params: w32}, {SOC: "d695", Params: w32}, {SOC: "p93791like", Params: w32},
		{SOC: "d695", Params: w48}, {SOC: "p93791like", Params: w48},
	}})
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()
	do := func() int64 {
		resp, err := client.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, resp.Body)
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("HTTP %d", resp.StatusCode)
		}
		return n
	}
	do() // fill the result cache outside the timed region
	b.SetBytes(do())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
}
