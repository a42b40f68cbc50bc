package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
)

// TestCacheSingleflight runs many concurrent identical requests through
// the cache and asserts exactly one build executes: it is held open until
// every other caller waits on it, so each of them is a singleflight-shared
// hit, and every caller gets the same bytes. Run with -race in CI.
func TestCacheSingleflight(t *testing.T) {
	c := NewResultCache(1 << 20)
	var builds atomic.Int64
	release := make(chan struct{})

	const callers = 16
	ctx := &waitCountingCtx{Context: context.Background(), want: callers - 1, reached: make(chan struct{})}
	docs := make([][]byte, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			doc, _, err := c.Do(ctx, "k", func() ([]byte, error) {
				builds.Add(1)
				<-release // hold the build open so every caller piles up on it
				return []byte("document"), nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			docs[i] = doc
		}(i)
	}
	select {
	case <-ctx.reached:
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatalf("%d of %d callers waited on the in-flight build within 10s", ctx.calls.Load(), callers-1)
	}
	close(release)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("builds = %d, want exactly 1 across %d concurrent callers", got, callers)
	}
	for i, doc := range docs {
		if !bytes.Equal(doc, []byte("document")) {
			t.Fatalf("caller %d got %q", i, doc)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != callers-1 || st.SingleflightShared != callers-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits, all singleflight-shared", st, callers-1)
	}
}

// waitCountingCtx counts calls to Done and closes reached at the want-th.
// flightLRU.Do calls Done once for each caller that waits on an in-flight
// build, and never for the build's leader or a caller served from a stored
// entry, so the count says how many callers are waiting.
type waitCountingCtx struct {
	context.Context
	want    int64
	calls   atomic.Int64
	reached chan struct{}
}

func (c *waitCountingCtx) Done() <-chan struct{} {
	if c.calls.Add(1) == c.want {
		close(c.reached)
	}
	return c.Context.Done()
}

// TestCacheLRUEviction churns a tiny cache with distinct keys and asserts
// the byte bound holds, evictions hit the cold end first, and re-fetching
// an evicted key rebuilds.
func TestCacheLRUEviction(t *testing.T) {
	// Room for exactly 4 of the 10-byte documents below.
	c := NewResultCache(40)
	doc := func(i int) []byte { return fmt.Appendf(nil, "doc-%06d", i) }
	get := func(i int) ([]byte, bool) {
		t.Helper()
		got, hit, err := c.Do(context.Background(), fmt.Sprintf("k%d", i), func() ([]byte, error) {
			return doc(i), nil
		})
		if err != nil || !bytes.Equal(got, doc(i)) {
			t.Fatalf("key %d: doc=%q err=%v", i, got, err)
		}
		return got, hit
	}

	for i := 0; i < 10; i++ {
		get(i)
	}
	st := c.Stats()
	if st.Bytes > 40 || st.Entries != 4 {
		t.Fatalf("after churn: %+v, want <= 40 bytes in 4 entries", st)
	}
	if st.Evictions != 6 {
		t.Fatalf("evictions = %d, want 6 (10 inserts into 4 slots)", st.Evictions)
	}

	// 6..9 survived; touching 6 makes 7 the coldest, so inserting one more
	// evicts 7, not 6.
	if _, hit := get(6); !hit {
		t.Fatal("key 6 should still be resident")
	}
	get(10)
	if _, hit := get(6); !hit {
		t.Fatal("recently-touched key 6 was evicted before colder keys")
	}
	if _, hit := get(7); hit {
		t.Fatal("coldest key 7 survived an over-capacity insert")
	}

	// A document larger than the whole cache is served but never stored.
	big := bytes.Repeat([]byte("x"), 64)
	got, _, err := c.Do(context.Background(), "huge", func() ([]byte, error) { return big, nil })
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("oversized doc: %v", err)
	}
	if _, hit, _ := c.Do(context.Background(), "huge", func() ([]byte, error) { return big, nil }); hit {
		t.Fatal("oversized document was stored despite exceeding capacity")
	}
}

// TestCacheFailureNotCached asserts a failed build is never stored: the
// caller gets the error, waiters on the failed flight retry rather than
// inheriting the failure, and the next build repopulates normally.
func TestCacheFailureNotCached(t *testing.T) {
	c := NewResultCache(1 << 20)
	boom := errors.New("boom")
	var builds atomic.Int64
	if _, _, err := c.Do(context.Background(), "k", func() ([]byte, error) {
		builds.Add(1)
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed build was cached: %+v", st)
	}
	doc, hit, err := c.Do(context.Background(), "k", func() ([]byte, error) {
		builds.Add(1)
		return []byte("ok"), nil
	})
	if err != nil || hit || !bytes.Equal(doc, []byte("ok")) {
		t.Fatalf("rebuild: doc=%q hit=%v err=%v", doc, hit, err)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2 (failure + rebuild)", builds.Load())
	}
}

// TestCacheWaitersSurviveFailedLeader pins the retry semantics under
// concurrency: when the singleflight leader's build fails, the waiters do
// not inherit the failure — they loop, one becomes the new leader, and
// everyone ends up with the good document. The leader fails only once all
// its waiters wait on its flight, so every waiter takes the retry path.
// Run with -race in CI.
func TestCacheWaitersSurviveFailedLeader(t *testing.T) {
	c := NewResultCache(1 << 20)
	var builds atomic.Int64
	leaderIn := make(chan struct{})
	leaderGo := make(chan struct{})

	var leaderErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.Do(context.Background(), "k", func() ([]byte, error) {
			close(leaderIn)
			<-leaderGo
			builds.Add(1)
			return nil, errors.New("leader failed")
		})
	}()
	<-leaderIn // the flight is registered; everyone below joins it

	const waiters = 8
	ctx := &waitCountingCtx{Context: context.Background(), want: waiters, reached: make(chan struct{})}
	werrs := make([]error, waiters)
	wdocs := make([][]byte, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wdocs[i], _, werrs[i] = c.Do(ctx, "k", func() ([]byte, error) {
				builds.Add(1)
				return []byte("good"), nil
			})
		}(i)
	}
	select {
	case <-ctx.reached:
	case <-time.After(10 * time.Second):
		close(leaderGo)
		t.Fatalf("%d of %d waiters waited on the leader's flight within 10s", ctx.calls.Load(), waiters)
	}
	close(leaderGo)
	wg.Wait()

	if leaderErr == nil {
		t.Fatal("leader did not observe its own build failure")
	}
	for i := range werrs {
		if werrs[i] != nil || !bytes.Equal(wdocs[i], []byte("good")) {
			t.Fatalf("waiter %d: doc=%q err=%v, want the rebuilt document", i, wdocs[i], werrs[i])
		}
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("builds = %d, want 2 (failed leader + one retry leader)", got)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != waiters-1 {
		t.Fatalf("stats = %+v, want 2 misses (both leaders) and %d hits", st, waiters-1)
	}
}

// TestCachePanickingBuildRetiresFlight: a build that panics reaches its
// caller as that panic and leaves no flight behind, so the next Do on the
// key runs a build of its own instead of waiting out its deadline.
func TestCachePanickingBuildRetiresFlight(t *testing.T) {
	c := NewResultCache(1 << 20)
	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("recovered %v, want the build's panic", p)
			}
		}()
		_, _, _ = c.Do(context.Background(), "k", func() ([]byte, error) { panic("boom") })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	doc, hit, err := c.Do(ctx, "k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || hit || !bytes.Equal(doc, []byte("ok")) {
		t.Fatalf("after a panicking build: doc=%q hit=%v err=%v, want its own build's document", doc, hit, err)
	}
}

// TestCacheWaiterContextBoundsWait holds a build open: the in-flight
// build holds no LRU slot, a waiter whose ctx ends returns ctx.Err()
// without running a build of its own, and the leader still stores its
// document for the next caller.
func TestCacheWaiterContextBoundsWait(t *testing.T) {
	c := NewResultCache(1 << 20)
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("document"), nil
		})
		leader <- err
	}()
	<-started
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("in-flight build holds a slot: %+v", st)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, hit, err := c.Do(ctx, "k", func() ([]byte, error) {
		t.Error("waiter ran its own build")
		return nil, nil
	}); !errors.Is(err, context.Canceled) || hit {
		t.Fatalf("waiter: hit=%v err=%v, want its own cancellation", hit, err)
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	doc, hit, err := c.Do(context.Background(), "k", func() ([]byte, error) {
		return nil, errors.New("rebuilt a stored document")
	})
	if err != nil || !hit || !bytes.Equal(doc, []byte("document")) {
		t.Fatalf("after the leader: doc=%q hit=%v err=%v, want the stored document", doc, hit, err)
	}
}

// TestChaosScheduleFailureNotCached drives the full HTTP path: a
// chaos-injected scheduling failure answers 5xx/422 and must not poison
// the cache — the retry reschedules for real, succeeds, and only then do
// repeats become hits.
func TestChaosScheduleFailureNotCached(t *testing.T) {
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: "service/schedule", Mode: chaos.ModeError, Count: 1},
	}})
	defer plan.Disable()

	svc, ts := newTestService(t, Config{Preload: []string{"demo8"}})
	client := ts.Client()
	req := map[string]any{"soc": "demo8", "params": ParamsJSON{TAMWidth: 16}}

	code, body := doJSON(t, client, "POST", ts.URL+"/v1/schedule", req)
	if code == http.StatusOK {
		t.Fatalf("sabotaged schedule unexpectedly succeeded: %s", body)
	}
	if st := svc.Cache().Stats(); st.Entries != 0 {
		t.Fatalf("failed schedule was cached: %+v", st)
	}

	code, first := doJSON(t, client, "POST", ts.URL+"/v1/schedule", req)
	if code != http.StatusOK {
		t.Fatalf("retry after injected failure: HTTP %d: %s", code, first)
	}
	code, second := doJSON(t, client, "POST", ts.URL+"/v1/schedule", req)
	if code != http.StatusOK || !bytes.Equal(first, second) {
		t.Fatalf("warm repeat: HTTP %d, byte-identical=%v", code, bytes.Equal(first, second))
	}
	if st := svc.Cache().Stats(); st.Hits < 1 || st.Misses < 1 {
		t.Fatalf("cache stats after recovery = %+v, want hits and misses", st)
	}
}

// TestCacheKeepsSpellingsApart: a request that spells a default two ways —
// insertSlack unset (best mode sweeps {3, 8, 16}) or 3 (pins 3), backend
// unset or "classic", seed unset or 1 (both echoed as sent) — is two
// requests. Each spelling answers the same bytes from a fresh service as
// from one that first served the other spelling.
func TestCacheKeepsSpellingsApart(t *testing.T) {
	anneal := ParamsJSON{TAMWidth: 8, Backend: "anneal"}
	seeded := anneal
	seeded.Seed = 1
	for _, pc := range []struct {
		name, route string
		a, b        ParamsJSON
	}{
		{"insertSlack", "/v1/schedule/best", ParamsJSON{TAMWidth: 8}, ParamsJSON{TAMWidth: 8, InsertSlack: 3}},
		{"backend", "/v1/schedule", ParamsJSON{TAMWidth: 8}, ParamsJSON{TAMWidth: 8, Backend: "classic"}},
		{"seed", "/v1/schedule", anneal, seeded},
	} {
		// serve answers both spellings, in order, from one new service.
		serve := func(first, second ParamsJSON) (out [2][]byte) {
			_, ts := newTestService(t, Config{Preload: []string{"demo8"}})
			for i, p := range [2]ParamsJSON{first, second} {
				code, body := doJSON(t, ts.Client(), "POST", ts.URL+pc.route, map[string]any{"soc": "demo8", "params": p})
				if code != http.StatusOK {
					t.Fatalf("%s: HTTP %d: %s", pc.name, code, body)
				}
				out[i] = body
			}
			return out
		}
		ab, ba := serve(pc.a, pc.b), serve(pc.b, pc.a)
		if !bytes.Equal(ab[0], ba[1]) || !bytes.Equal(ab[1], ba[0]) {
			t.Errorf("%s: an answer depends on which spelling was served first", pc.name)
		}
	}
}

// TestCacheFoldsSingleRunSlack: a single run with insertSlack 3 is the
// unset spelling's run, so /v1/schedule with 3 after the unset spelling is
// a cache hit and answers the same bytes.
func TestCacheFoldsSingleRunSlack(t *testing.T) {
	svc, ts := newTestService(t, Config{Preload: []string{"d695"}})
	var bodies [2][]byte
	for i, p := range []ParamsJSON{{TAMWidth: 28}, {TAMWidth: 28, InsertSlack: 3}} {
		code, body := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/schedule", map[string]any{"soc": "d695", "params": p})
		if code != http.StatusOK {
			t.Fatalf("insertSlack %d: HTTP %d: %s", p.InsertSlack, code, body)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("insertSlack 3 answered other bytes than the unset spelling")
	}
	if st := svc.Cache().Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache stats %+v, want 1 miss and 1 hit", st)
	}
}

// TestCacheFoldsEmptyBudgets: a budget of 0 and an empty maxPreemptions
// map grant no budget, so /v1/schedule/best with `{"3": 0}`, then unset,
// then `{}` runs once and answers the same bytes three times, and the
// document records no maxPreemptions. The zero budget goes first, so a
// document that recorded the map as sent would be the one served to the
// other two. The bodies are raw JSON because a ParamsJSON holding an
// empty map marshals without the field.
func TestCacheFoldsEmptyBudgets(t *testing.T) {
	svc, ts := newTestService(t, Config{Preload: []string{"d695"}})
	var bodies [3][]byte
	for i, params := range []string{
		`{"tamWidth": 32, "maxPreemptions": {"3": 0}}`,
		`{"tamWidth": 32}`,
		`{"tamWidth": 32, "maxPreemptions": {}}`,
	} {
		req := json.RawMessage(`{"soc": "d695", "params": ` + params + `}`)
		code, body := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/schedule/best", req)
		if code != http.StatusOK {
			t.Fatalf("params %s: HTTP %d: %s", params, code, body)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[0], bodies[1]) || !bytes.Equal(bodies[0], bodies[2]) {
		t.Error("a zero budget, no budget map and an empty one answered different bytes")
	}
	if bytes.Contains(bodies[0], []byte("maxPreemptions")) {
		t.Errorf("a request without a positive budget got a document that records budgets:\n%s", bodies[0])
	}
	if st := svc.Cache().Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Errorf("cache stats %+v, want 1 miss and 2 hits", st)
	}
}
