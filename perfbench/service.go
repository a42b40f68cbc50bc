package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/soc"
	"repro/internal/socfile"
)

// env is one in-process service behind a loopback HTTP listener, with the
// workload's SOCs uploaded and their Planners built.
type env struct {
	svc    *service.Server
	ts     *httptest.Server
	client *http.Client
	socs   map[string]*soc.SOC // fingerprint → the registry's copy
	builds []time.Duration     // first Planner build per uploaded SOC
	closed bool
}

// newEnv resets the process-wide scheduler and latency state, starts a
// fresh service (its handler optionally wrapped) and uploads and prebuilds
// every SOC of the plan. Each run gets its own env, so one run's breaker
// state, race counters, histograms and cache never leak into the next.
func newEnv(p *plan, wrap func(http.Handler) http.Handler) (*env, error) {
	sched.ResetPortfolioHealth()
	obs.ResetLatency()
	svc, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	h := svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	e := &env{
		svc: svc,
		ts:  httptest.NewServer(h),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   2 * time.Minute,
		},
		socs: make(map[string]*soc.SOC),
	}
	for _, s := range p.SOCs {
		fp, err := e.upload(s)
		if err != nil {
			e.close()
			return nil, err
		}
		t0 := time.Now()
		if _, err := svc.Registry().Planner(context.Background(), fp); err != nil {
			e.close()
			return nil, fmt.Errorf("build planner %s: %w", s.Name, err)
		}
		e.builds = append(e.builds, time.Since(t0))
		reg, _, err := svc.Registry().SOC(fp)
		if err != nil {
			e.close()
			return nil, err
		}
		e.socs[fp] = reg
	}
	return e, nil
}

// upload registers a SOC through POST /v1/socs and returns the fingerprint
// the service answered, which must equal the one the generator addressed.
func (e *env) upload(s *soc.SOC) (string, error) {
	var buf bytes.Buffer
	if err := socfile.Write(&buf, s); err != nil {
		return "", err
	}
	status, _, body, err := e.post("/v1/socs", "text/plain", buf.Bytes())
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("upload %s: HTTP %d: %s", s.Name, status, body)
	}
	var ans struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return "", fmt.Errorf("upload %s: %w", s.Name, err)
	}
	if want := socfile.Fingerprint(s); ans.Fingerprint != want {
		return "", fmt.Errorf("upload %s: fingerprint %s, generator addressed %s", s.Name, ans.Fingerprint, want)
	}
	return ans.Fingerprint, nil
}

func (e *env) post(path, contentType string, body []byte) (int, http.Header, []byte, error) {
	resp, err := e.client.Post(e.ts.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, b, err
}

// metrics fetches the service's /metrics snapshot.
func (e *env) metrics() (service.MetricsSnapshot, error) {
	var m service.MetricsSnapshot
	resp, err := e.client.Get(e.ts.URL + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// close stops the listener (waiting for in-flight requests) and the
// service's job pool. Closing twice is a no-op.
func (e *env) close() {
	if e.closed {
		return
	}
	e.closed = true
	e.ts.Close()
	e.client.CloseIdleConnections()
	e.svc.Close()
}

// docKey is the content address of a schedule document: the SHA-256 of its
// compact JSON, so a batch item's re-indented copy and the single-request
// bytes of the same document share one key.
type docKey [sha256.Size]byte

// response is what one client call brought back, reduced to what the
// output checks need. Documents are stored once per docKey by the caller.
type response struct {
	done    bool
	status  int
	err     error
	latency time.Duration // wall clock
	cpu     time.Duration // process CPU clock
	docs    []docKey      // one per item, or the effective answer
	items   []int         // per-item status of a batch
	hits    []bool        // per item: served from the result cache
	raw     []byte        // the full body, kept for byte-parity checks when asked
}

// call sends one request and reduces its answer. Batch answers are decoded
// in the loop, as a client reading its per-item results would; every
// document is compacted and stored in docs under its key.
func (e *env) call(r *request, docs map[docKey][]byte, keepRaw bool) response {
	t0, c0 := time.Now(), cpuNow()
	status, header, body, err := e.post(kindPath[r.Kind], "application/json", r.Body)
	res := response{done: true, status: status, err: err, latency: time.Since(t0), cpu: cpuNow() - c0}
	if keepRaw {
		res.raw = body
	}
	if err != nil || status != http.StatusOK {
		return res
	}
	if r.Kind != kindBatch {
		res.docs = []docKey{storeDoc(docs, body)}
		res.hits = []bool{header.Get("X-Cache") == "hit"}
		return res
	}
	var br service.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		res.err = fmt.Errorf("decode batch: %w", err)
		return res
	}
	for _, it := range br.Items {
		res.items = append(res.items, it.Status)
		var k docKey
		if it.Error == nil {
			k = storeDoc(docs, it.Result)
		}
		res.docs = append(res.docs, k)
		res.hits = append(res.hits, it.Cached)
	}
	return res
}

func storeDoc(docs map[docKey][]byte, doc []byte) docKey {
	var buf bytes.Buffer
	if err := json.Compact(&buf, doc); err != nil {
		buf.Reset()
		buf.Write(doc) // not JSON: the check rejects it
	}
	k := docKey(sha256.Sum256(buf.Bytes()))
	if _, ok := docs[k]; !ok {
		docs[k] = buf.Bytes()
	}
	return k
}
