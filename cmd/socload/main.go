// Command socload is a seeded load generator for socserved: it drives a
// deterministic mix of single-request scheduling calls and /v1/batch
// requests over a hot/cold fingerprint-and-params mix, then reports
// client-side throughput and latency alongside the service's own
// /metrics counters (cache hits, misses, evictions, shed) and the
// /v1/backends race table.
//
// With no -addr it starts an in-process service, which is how CI uses it
// as a smoke gate: the run exits non-zero unless batch throughput is
// non-zero and the hot traffic produced cache hits.
//
// Usage:
//
//	socload -seed 1 -n 200 -c 4                 # in-process service
//	socload -addr http://127.0.0.1:8080 -n 500  # against a live server
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", "", "socserved base URL (default: start an in-process service)")
		seed      = flag.Int64("seed", 1, "PRNG seed; the request mix is a pure function of it")
		n         = flag.Int("n", 200, "total requests to send")
		c         = flag.Int("c", 4, "concurrent client workers")
		batchFrac = flag.Float64("batch", 0.3, "fraction of requests that are /v1/batch")
		batchSize = flag.Int("batch-size", 8, "items per batch request")
		hotFrac   = flag.Float64("hot", 0.8, "fraction of traffic drawn from the small hot params set (cache-friendly)")
		socNames  = flag.String("socs", "demo8,d695", "comma-separated benchmark SOCs to load")
	)
	flag.Parse()

	base := *addr
	if base == "" {
		svc, err := service.New(service.Config{Preload: splitList(*socNames)})
		if err != nil {
			fatal(err)
		}
		defer svc.Close()
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		base = ts.URL
		fmt.Printf("socload: in-process service at %s\n", base)
	}

	gen := newGenerator(*seed, splitList(*socNames), *batchFrac, *hotFrac, *batchSize)
	reqs := make([]request, *n)
	for i := range reqs {
		reqs[i] = gen.next()
	}

	var (
		mu        sync.Mutex
		durations []time.Duration
		singles   tally
		batches   tally
		itemsOK   int
		itemsFail int
		cacheHits int
	)
	idx := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 60 * time.Second}
			for i := range idx {
				req := reqs[i]
				t0 := time.Now()
				status, body, err := post(client, base+req.path, req.body)
				d := time.Since(t0)
				mu.Lock()
				durations = append(durations, d)
				t := &singles
				if req.batch {
					t = &batches
				}
				if err != nil || status != http.StatusOK {
					t.failed++
				} else {
					t.ok++
					if req.batch {
						var resp service.BatchResponse
						if json.Unmarshal(body, &resp) == nil {
							itemsOK += resp.Stats.OK
							itemsFail += resp.Stats.Failed
							cacheHits += resp.Stats.CacheHits
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("\nsocload: seed=%d n=%d c=%d batch=%.0f%% hot=%.0f%% in %v\n",
		*seed, *n, *c, 100**batchFrac, 100**hotFrac, elapsed.Round(time.Millisecond))
	fmt.Printf("  single requests: %d ok, %d failed\n", singles.ok, singles.failed)
	fmt.Printf("  batch requests:  %d ok, %d failed (%d items ok, %d items failed, %d item cache hits)\n",
		batches.ok, batches.failed, itemsOK, itemsFail, cacheHits)
	secs := elapsed.Seconds()
	fmt.Printf("  throughput: %.1f req/s overall, %.1f batch/s, %.1f scheduled items/s\n",
		float64(singles.ok+batches.ok)/secs, float64(batches.ok)/secs,
		float64(singles.ok+itemsOK)/secs)
	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	fmt.Printf("  client latency: p50 %v  p90 %v  p99 %v  max %v\n",
		quantile(durations, 0.50), quantile(durations, 0.90),
		quantile(durations, 0.99), quantile(durations, 1.00))

	reportMetrics(base)
	reportBackends(base)

	// CI gate: the run must actually have exercised the batch path and the
	// hot mix must have hit the cache.
	if batches.ok == 0 || itemsOK == 0 {
		fatal(fmt.Errorf("gate: zero batch throughput (%d batches ok, %d items ok)", batches.ok, itemsOK))
	}
	if *hotFrac > 0 && cacheHits == 0 {
		fatal(fmt.Errorf("gate: hot traffic produced zero cache hits"))
	}
}

type tally struct{ ok, failed int }

type request struct {
	path  string
	body  []byte
	batch bool
}

// generator derives the whole request mix from one seed: hot traffic
// draws from a four-entry params set (cache-friendly), cold traffic from
// a wide width range, and batches mix the two.
type generator struct {
	rng       *rand.Rand
	socs      []string
	batchFrac float64
	hotFrac   float64
	batchSize int
	hot       []service.ParamsJSON
}

func newGenerator(seed int64, socs []string, batchFrac, hotFrac float64, batchSize int) *generator {
	return &generator{
		rng:       rand.New(rand.NewSource(seed)),
		socs:      socs,
		batchFrac: batchFrac,
		hotFrac:   hotFrac,
		batchSize: batchSize,
		hot: []service.ParamsJSON{
			{TAMWidth: 16},
			{TAMWidth: 24},
			{TAMWidth: 32, Percent: 10, Delta: 1},
			{TAMWidth: 48},
		},
	}
}

func (g *generator) params() service.ParamsJSON {
	if g.rng.Float64() < g.hotFrac {
		return g.hot[g.rng.Intn(len(g.hot))]
	}
	// Cold: a width drawn from a range wide enough that repeats are rare.
	return service.ParamsJSON{TAMWidth: 8 + g.rng.Intn(249)}
}

func (g *generator) soc() string { return g.socs[g.rng.Intn(len(g.socs))] }

func (g *generator) next() request {
	if g.rng.Float64() < g.batchFrac {
		items := make([]map[string]any, g.batchSize)
		for i := range items {
			items[i] = map[string]any{"soc": g.soc(), "params": g.params()}
		}
		return request{path: "/v1/batch", body: marshal(map[string]any{"items": items}), batch: true}
	}
	path := "/v1/schedule"
	if g.rng.Float64() < 0.25 {
		path = "/v1/schedule/best"
	}
	return request{path: path, body: marshal(map[string]any{"soc": g.soc(), "params": g.params()})}
}

func reportMetrics(base string) {
	var m service.MetricsSnapshot
	if err := getJSON(base+"/metrics", &m); err != nil {
		fatal(err)
	}
	fmt.Printf("  server: %d requests (%d shed, %d timeouts), %d schedules, %d batches\n",
		m.Requests, m.Shed, m.Timeouts, m.Schedules, m.Batches)
	fmt.Printf("  cache:  %d hits, %d misses, %d evictions, %d singleflight-shared, %d entries / %d bytes\n",
		m.Cache.Hits, m.Cache.Misses, m.Cache.Evictions, m.Cache.SingleflightShared,
		m.Cache.Entries, m.Cache.Bytes)
}

func reportBackends(base string) {
	var disc struct {
		Backends []struct {
			Name string `json:"name"`
			Race struct {
				Won  int64 `json:"won"`
				Lost int64 `json:"lost"`
			} `json:"race"`
			Latency struct {
				Count int64 `json:"count"`
				P50Ns int64 `json:"p50Ns"`
				P99Ns int64 `json:"p99Ns"`
			} `json:"latency"`
		} `json:"backends"`
	}
	if err := getJSON(base+"/v1/backends", &disc); err != nil {
		fatal(err)
	}
	fmt.Printf("  %-10s %6s %6s %10s %10s %10s\n", "backend", "won", "lost", "count", "p50", "p99")
	for _, b := range disc.Backends {
		fmt.Printf("  %-10s %6d %6d %10d %10v %10v\n",
			b.Name, b.Race.Won, b.Race.Lost, b.Latency.Count,
			time.Duration(b.Latency.P50Ns).Round(time.Microsecond),
			time.Duration(b.Latency.P99Ns).Round(time.Microsecond))
	}
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i].Round(time.Microsecond)
}

func marshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	return b
}

func splitList(s string) []string {
	var out []string
	for _, f := range bytes.Split([]byte(s), []byte(",")) {
		if name := string(bytes.TrimSpace(f)); name != "" {
			out = append(out, name)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "socload:", err)
	os.Exit(1)
}
