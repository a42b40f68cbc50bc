// Example server demonstrates driving a running socserved instance as a
// client: upload a SOC, request the grid-swept best schedule, submit an
// async width-sweep job, poll it, and pick the effective TAM width.
//
// Start the service first:
//
//	go run ./cmd/socserved -addr :8080
//
// then:
//
//	go run ./examples/server -addr http://127.0.0.1:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"repro"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "socserved base URL")
	flag.Parse()

	// Upload the demo SOC in .soc text form. BenchmarkSOC + WriteSOC stand
	// in for reading a .soc file off disk.
	var socText bytes.Buffer
	if err := repro.WriteSOC(&socText, repro.BenchmarkSOC("demo8")); err != nil {
		log.Fatal(err)
	}
	var up struct {
		Fingerprint string `json:"fingerprint"`
		Name        string `json:"name"`
	}
	post(*addr+"/v1/socs", "text/plain", socText.Bytes(), &up)
	fmt.Printf("uploaded %s → fingerprint %s\n", up.Name, up.Fingerprint[:12])

	// Grid-swept best schedule at W=24, addressed by fingerprint.
	var sch struct {
		Makespan   int64 `json:"makespan"`
		DataVolume int64 `json:"dataVolume"`
	}
	post(*addr+"/v1/schedule/best", "application/json",
		jsonBody(map[string]any{"soc": up.Fingerprint, "params": map[string]any{"tamWidth": 24}}), &sch)
	fmt.Printf("best schedule at W=24: makespan %d cycles, data volume %d bits\n", sch.Makespan, sch.DataVolume)

	// Async width sweep: submit, poll, fetch the result.
	var job struct {
		Job       struct{ ID, State string }
		StatusURL string `json:"statusUrl"`
		ResultURL string `json:"resultUrl"`
	}
	post(*addr+"/v1/sweep", "application/json",
		jsonBody(map[string]any{"soc": up.Name, "params": map[string]any{"widthLo": 8, "widthHi": 32}}), &job)
	fmt.Printf("sweep job %s submitted\n", job.Job.ID)
	for {
		var st struct{ State string }
		get(*addr+job.StatusURL, &st)
		if st.State != "queued" && st.State != "running" {
			fmt.Printf("sweep job %s: %s\n", job.Job.ID, st.State)
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	var sweep struct {
		MinTime        int64
		MinTimeWidth   int
		MinVolume      int64
		MinVolumeWidth int
	}
	get(*addr+job.ResultURL, &sweep)
	fmt.Printf("sweep: T_min %d @ W=%d, D_min %d @ W=%d\n",
		sweep.MinTime, sweep.MinTimeWidth, sweep.MinVolume, sweep.MinVolumeWidth)

	// Effective width with equal time/volume weight.
	var eff struct {
		TAMWidth int
		Time     int64
		Volume   int64
	}
	post(*addr+"/v1/effective", "application/json",
		jsonBody(map[string]any{"soc": up.Name, "params": map[string]any{"widthLo": 8, "widthHi": 32, "gamma": 0.5}}), &eff)
	fmt.Printf("effective width (γ=0.5): W=%d (T=%d, D=%d)\n", eff.TAMWidth, eff.Time, eff.Volume)

	// Batch: schedule several widths in one request. Run it twice — the
	// repeat is served from the content-addressed result cache.
	batch := jsonBody(map[string]any{
		"items": []map[string]any{
			{"soc": up.Fingerprint, "params": map[string]any{"tamWidth": 16}},
			{"soc": up.Fingerprint, "params": map[string]any{"tamWidth": 24}},
			{"soc": up.Fingerprint, "params": map[string]any{"tamWidth": 24}, "best": true},
			{"soc": "no-such-soc", "params": map[string]any{"tamWidth": 16}},
		},
	})
	var batchResp struct {
		Items []struct {
			Index  int             `json:"index"`
			Status int             `json:"status"`
			Cached bool            `json:"cached"`
			Result json.RawMessage `json:"result,omitempty"`
			Error  *struct {
				Code    string `json:"code"`
				Message string `json:"message"`
			} `json:"error,omitempty"`
		} `json:"items"`
		Stats struct {
			OK, Failed, CacheHits int
		} `json:"stats"`
	}
	for _, pass := range []string{"cold", "warm"} {
		post(*addr+"/v1/batch", "application/json", batch, &batchResp)
		fmt.Printf("batch (%s): %d ok, %d failed, %d cache hits\n",
			pass, batchResp.Stats.OK, batchResp.Stats.Failed, batchResp.Stats.CacheHits)
	}
	for _, it := range batchResp.Items {
		if it.Error != nil {
			fmt.Printf("  item %d failed alone: HTTP %d code=%s\n", it.Index, it.Status, it.Error.Code)
			continue
		}
		var doc struct {
			Makespan int64 `json:"makespan"`
		}
		if err := json.Unmarshal(it.Result, &doc); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  item %d: makespan %d cycles (cached=%v)\n", it.Index, doc.Makespan, it.Cached)
	}

	// Race the backend portfolio once so the per-backend observability has
	// a win to report, then print the discovery endpoint's race table.
	post(*addr+"/v1/schedule/best", "application/json",
		jsonBody(map[string]any{"soc": up.Fingerprint,
			"params": map[string]any{"tamWidth": 24, "backend": "portfolio"}}), &sch)
	fmt.Printf("portfolio best at W=24: makespan %d cycles\n\n", sch.Makespan)
	var disc struct {
		Backends []struct {
			Name string `json:"name"`
			Race struct {
				Won     int64   `json:"won"`
				Lost    int64   `json:"lost"`
				State   string  `json:"state"`
				WinRate float64 `json:"winRate"`
			} `json:"race"`
			Latency struct {
				Count int64 `json:"count"`
				P50Ns int64 `json:"p50Ns"`
				P99Ns int64 `json:"p99Ns"`
			} `json:"latency"`
		} `json:"backends"`
	}
	get(*addr+"/v1/backends", &disc)
	fmt.Printf("%-10s %5s %5s %8s %10s %10s %10s\n",
		"backend", "won", "lost", "winrate", "state", "p50", "p99")
	for _, b := range disc.Backends {
		fmt.Printf("%-10s %5d %5d %7.0f%% %10s %10s %10s\n",
			b.Name, b.Race.Won, b.Race.Lost, 100*b.Race.WinRate, b.Race.State,
			time.Duration(b.Latency.P50Ns).Round(time.Microsecond),
			time.Duration(b.Latency.P99Ns).Round(time.Microsecond))
	}
}

func jsonBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	return b
}

// do issues one request and decodes the response, retrying dial failures,
// 429 sheds (socserved's admission control answers those with Retry-After)
// and 5xx responses: at most 5 attempts, with a backoff that starts at
// 100ms and doubles.
func do(url string, req func() (*http.Response, error), out any) {
	backoff := 100 * time.Millisecond
	for attempt := 1; ; attempt++ {
		retry, err := once(url, req, out)
		if err == nil {
			return
		}
		if !retry || attempt == 5 {
			log.Fatal(err)
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// once issues one request; retry reports whether its failure is worth
// another attempt.
func once(url string, req func() (*http.Response, error), out any) (retry bool, err error) {
	resp, err := req()
	if err != nil {
		return true, fmt.Errorf("%s: %v (is socserved running?)", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(resp.Body)
		retry = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500
		return retry, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return false, fmt.Errorf("%s: decode: %v", url, err)
	}
	return false, nil
}

func post(url, contentType string, body []byte, out any) {
	do(url, func() (*http.Response, error) {
		return http.Post(url, contentType, bytes.NewReader(body))
	}, out)
}

func get(url string, out any) {
	do(url, func() (*http.Response, error) { return http.Get(url) }, out)
}
