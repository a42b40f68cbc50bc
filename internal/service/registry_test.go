package service

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/soc"
)

// demoVariant returns a small, distinct SOC derived from demo8 — cheap to
// build a Planner for, with a fingerprint (and name) unique to i.
func demoVariant(t testing.TB, i int) *soc.SOC {
	t.Helper()
	s := bench.Demo().Clone()
	s.Name = fmt.Sprintf("demo8v%d", i)
	s.Cores[0].Test.Patterns += i
	return s
}

func TestRegistryAddDedupAndResolve(t *testing.T) {
	r := NewRegistry(4)
	s := bench.Demo()
	fp1, err := r.Add(s)
	if err != nil {
		t.Fatal(err)
	}
	fp2, err := r.Add(s.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if fp1 != fp2 {
		t.Fatalf("re-adding the same SOC gave a new fingerprint: %s vs %s", fp1, fp2)
	}
	if got := len(r.List()); got != 1 {
		t.Fatalf("registry lists %d SOCs, want 1", got)
	}
	for _, key := range []string{fp1, "demo8"} {
		if fp, ok := r.Resolve(key); !ok || fp != fp1 {
			t.Fatalf("Resolve(%q) = (%s, %v), want (%s, true)", key, fp, ok, fp1)
		}
	}
	if _, ok := r.Resolve("nope"); ok {
		t.Fatal("Resolve accepted an unknown key")
	}
	if _, err := r.Planner(context.Background(), "nope"); !errors.Is(err, ErrUnknownSOC) {
		t.Fatalf("Planner(nope) err = %v, want ErrUnknownSOC", err)
	}
}

// TestRegistryRejectsUnserializableNames closes the fingerprint-forgery
// hole: a JSON-built SOC whose name smuggles .soc grammar (here a
// PowerMax line) would serialize to the same canonical bytes as a
// different SOC, so Add must reject names that cannot round-trip the
// grammar instead of colliding the two fingerprints.
func TestRegistryRejectsUnserializableNames(t *testing.T) {
	r := NewRegistry(2)
	honest := bench.Demo().Clone()
	honest.Name = "x"
	honest.PowerMax = 100
	if _, err := r.Add(honest); err != nil {
		t.Fatal(err)
	}
	forged := bench.Demo().Clone()
	forged.Name = "x\nPowerMax 100"
	forged.PowerMax = 0
	if _, err := r.Add(forged); err == nil || !strings.Contains(err.Error(), "round-trip") {
		t.Fatalf("Add accepted a grammar-smuggling SOC name (err = %v)", err)
	}
	badCore := bench.Demo().Clone()
	badCore.Cores[0].Name = "a b"
	if _, err := r.Add(badCore); err == nil {
		t.Fatal("Add accepted a core name with whitespace")
	}
}

// TestRegistrySingleflight asserts the singleflight guarantee under
// concurrent load: many goroutines racing on a mix of fingerprints cause
// exactly one Planner build per fingerprint, and every caller gets the
// same Planner instance. Run with -race in CI.
func TestRegistrySingleflight(t *testing.T) {
	const socs = 4
	const callersPerSOC = 16
	r := NewRegistry(socs + 1) // no eviction pressure
	keys := make([]string, socs)
	for i := range keys {
		fp, err := r.Add(demoVariant(t, i))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = fp
	}
	got := make([][]any, socs) // planners seen per SOC
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < socs*callersPerSOC; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := i % socs
			p, err := r.Planner(context.Background(), keys[k])
			if err != nil {
				t.Errorf("Planner(%d): %v", k, err)
				return
			}
			mu.Lock()
			got[k] = append(got[k], p)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if b := r.Stats().Builds; b != socs {
		t.Fatalf("%d Planner builds for %d fingerprints (singleflight broken)", b, socs)
	}
	for k, ps := range got {
		if len(ps) != callersPerSOC {
			t.Fatalf("soc %d: %d callers returned, want %d", k, len(ps), callersPerSOC)
		}
		for _, p := range ps {
			if p != ps[0] {
				t.Fatalf("soc %d: callers got different Planner instances", k)
			}
		}
	}
}

// TestRegistryLRUEviction asserts the size bound: with capacity 2, a third
// Planner evicts the least-recently-used one, which is rebuilt (a fresh
// build) on its next use while the still-cached Planner is served from
// the LRU without rebuilding.
func TestRegistryLRUEviction(t *testing.T) {
	r := NewRegistry(2)
	keys := make([]string, 3)
	for i := range keys {
		fp, err := r.Add(demoVariant(t, i))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = fp
	}
	planners := make([]any, 3)
	for i, k := range keys {
		p, err := r.Planner(context.Background(), k)
		if err != nil {
			t.Fatal(err)
		}
		planners[i] = p
	}
	if b := r.Stats().Builds; b != 3 {
		t.Fatalf("builds = %d, want 3", b)
	}
	if e := r.Stats().Evictions; e != 1 {
		t.Fatalf("evictions = %d, want 1 (capacity 2, 3 builds)", e)
	}
	if n := r.Stats().Planners; n != 2 {
		t.Fatalf("cached planners = %d, want 2", n)
	}

	// keys[0] was the LRU victim: requesting it again is a fresh build.
	p0, err := r.Planner(context.Background(), keys[0])
	if err != nil {
		t.Fatal(err)
	}
	if b := r.Stats().Builds; b != 4 {
		t.Fatalf("builds = %d after re-requesting the evicted Planner, want 4", b)
	}
	if p0 == planners[0] {
		t.Fatal("evicted Planner instance was re-served instead of rebuilt")
	}

	// keys[2] stayed cached through the re-build (it evicted keys[1]).
	p2, err := r.Planner(context.Background(), keys[2])
	if err != nil {
		t.Fatal(err)
	}
	if b := r.Stats().Builds; b != 4 {
		t.Fatalf("builds = %d, want 4 (keys[2] should be cached)", b)
	}
	if p2 != planners[2] {
		t.Fatal("cached Planner changed identity")
	}
}

// TestRegistryConcurrentMixedWithEviction hammers a small-capacity
// registry with mixed-fingerprint traffic — builds, rebuilds after
// eviction, list and resolve calls — under -race, and checks at every
// step that in-flight builds hold no LRU slot: the Planner count never
// exceeds capacity, even briefly.
func TestRegistryConcurrentMixedWithEviction(t *testing.T) {
	const socs = 5
	r := NewRegistry(2) // heavy eviction churn
	keys := make([]string, socs)
	for i := range keys {
		fp, err := r.Add(demoVariant(t, i))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = fp
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				k := keys[(g+i)%socs]
				if _, err := r.Planner(context.Background(), k); err != nil {
					t.Errorf("Planner: %v", err)
				}
				r.List()
				r.Resolve(k)
				if n := r.Stats().Planners; n > 2 {
					t.Errorf("planner cache holds %d, capacity 2", n)
				}
			}
		}(g)
	}
	wg.Wait()
	if st := r.Stats(); st.SOCs != socs {
		t.Fatalf("SOCs = %d, want %d", st.SOCs, socs)
	}
}

// TestRegistryWaiterContextBoundsWait holds a Planner build open at the
// build failpoint: a waiter whose ctx ends mid-build returns ctx.Err()
// without waiting for it, and the leader still stores its Planner, so the
// next call is a hit rather than a second build.
func TestRegistryWaiterContextBoundsWait(t *testing.T) {
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: siteRegistryBuild, Mode: chaos.ModeDelay, Delay: time.Minute},
	}})
	defer plan.Disable()
	r := NewRegistry(2)
	fp, err := r.Add(bench.Demo())
	if err != nil {
		t.Fatal(err)
	}
	leader := make(chan error, 1)
	go func() {
		_, err := r.Planner(context.Background(), fp)
		leader <- err
	}()
	for plan.Hits(siteRegistryBuild) == 0 { // the leader's flight is registered
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := r.Planner(ctx, fp); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("waiter err = %v, want its own deadline", err)
	}
	plan.Disable() // ends the delay: the leader's build completes
	if err := <-leader; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if _, err := r.Planner(context.Background(), fp); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Builds != 1 || st.Planners != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 build stored and 1 hit", st)
	}
}
