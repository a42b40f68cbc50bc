package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries pins the bucketing scheme: indices are monotonic,
// contiguous, and every bucket's lower bound maps back to its own index.
func TestBucketBoundaries(t *testing.T) {
	// Exact region: one bucket per value below 16.
	for v := int64(0); v < 16; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Errorf("bucketIndex(%d) = %d, want %d", v, got, v)
		}
	}
	// Continuity across the exact/log boundary and octave edges.
	for _, tc := range []struct {
		v    int64
		want int
	}{
		{15, 15}, {16, 16}, {17, 16}, {30, 23}, {31, 23}, {32, 24}, {63, 31}, {64, 32},
	} {
		if got := bucketIndex(tc.v); got != tc.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if got := bucketIndex(-5); got != 0 {
		t.Errorf("bucketIndex(-5) = %d, want 0 (clamped)", got)
	}
	// Round trip: every bucket's lower bound belongs to that bucket, and
	// the value one below it belongs to the previous bucket.
	for idx := 0; idx < histBuckets-histSub; idx++ {
		lo := bucketLower(idx)
		if got := bucketIndex(lo); got != idx {
			t.Fatalf("bucketIndex(bucketLower(%d)=%d) = %d", idx, lo, got)
		}
		if idx > 0 {
			if got := bucketIndex(lo - 1); got != idx-1 {
				t.Fatalf("bucketIndex(%d) = %d, want %d (bucket below %d)", lo-1, got, idx-1, idx)
			}
		}
	}
	// The widest representable duration still fits the array.
	if got := bucketIndex(int64(1)<<62 + 12345); got >= histBuckets {
		t.Fatalf("bucketIndex(2^62) = %d out of range %d", got, histBuckets)
	}
}

// TestHistogramRelativeError checks the bucket-lower-bound guarantee: the
// reported quantile is never above the true value and within 12.5% below.
func TestHistogramRelativeError(t *testing.T) {
	for _, v := range []int64{1, 7, 16, 100, 999, 12345, 1e6, 1e9, 7e12} {
		idx := bucketIndex(v)
		lo := bucketLower(idx)
		if lo > v {
			t.Errorf("bucketLower(%d)=%d above sample %d", idx, lo, v)
		}
		if v >= 16 && float64(v-lo) > 0.125*float64(lo)+1 {
			t.Errorf("sample %d is %d above bucket lower %d (> 12.5%%)", v, v-lo, lo)
		}
	}
}

// TestHistogramQuantiles compares estimated quantiles against exact
// order statistics on seeded samples.
func TestHistogramQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]int64, 0, 10000)
	for i := 0; i < 10000; i++ {
		// Log-uniform over ~6 decades, the shape of real latencies.
		v := int64(1) << uint(rng.Intn(40))
		v += rng.Int63n(v)
		samples = append(samples, v)
		h.Observe(time.Duration(v))
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	snap := h.Snapshot()
	if snap.Count != int64(len(samples)) {
		t.Fatalf("Count = %d, want %d", snap.Count, len(samples))
	}
	if snap.MaxNs != samples[len(samples)-1] {
		t.Errorf("MaxNs = %d, want exact max %d", snap.MaxNs, samples[len(samples)-1])
	}
	for _, q := range []struct {
		name string
		got  int64
		pct  int64
	}{
		{"p50", snap.P50Ns, 50}, {"p90", snap.P90Ns, 90}, {"p99", snap.P99Ns, 99},
	} {
		rank := (int64(len(samples))*q.pct + 99) / 100
		exact := samples[rank-1]
		if q.got > exact {
			t.Errorf("%s = %d above exact %d", q.name, q.got, exact)
		}
		if float64(exact-q.got) > 0.15*float64(exact) {
			t.Errorf("%s = %d more than 15%% below exact %d", q.name, q.got, exact)
		}
	}
}

// TestHistogramConcurrent hammers one histogram from many goroutines
// (meaningful under -race) and checks no observation is lost.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Int63n(1 << 30)))
			}
		}(int64(w))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			h.Snapshot() // snapshots race with recording; -race must stay quiet
		}
	}()
	wg.Wait()
	<-done
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("Count = %d, want %d", got, workers*per)
	}
}

// TestRegistry checks name resolution, snapshotting, and reset.
func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Observe("a", 100*time.Nanosecond)
	r.Observe("a", 200*time.Nanosecond)
	r.Observe("b", time.Microsecond)
	if r.Get("a") != r.Get("a") {
		t.Fatal("Get returned distinct histograms for one name")
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap["a"].Count != 2 || snap["b"].Count != 1 {
		t.Fatalf("Snapshot = %+v", snap)
	}
	if snap["a"].MaxNs != 200 {
		t.Fatalf("a.MaxNs = %d, want 200", snap["a"].MaxNs)
	}
	r.Reset()
	if got := len(r.Snapshot()); got != 0 {
		t.Fatalf("after Reset, %d histograms remain", got)
	}
}

// TestTimeStageAndLatencySnapshot: TimeStage records one sample into the
// package-level Stages registry, LatencySnapshot reports it, and
// ResetLatency empties every package-level registry.
func TestTimeStageAndLatencySnapshot(t *testing.T) {
	ResetLatency()
	t.Cleanup(ResetLatency)
	TimeStage("test/stage")()
	Routes.Observe("GET /test", time.Microsecond)
	Backends.Observe("test-backend", time.Microsecond)
	snap := LatencySnapshot()
	if snap.Stages["test/stage"].Count != 1 || snap.Routes["GET /test"].Count != 1 || snap.Backends["test-backend"].Count != 1 {
		t.Fatalf("LatencySnapshot = %+v, want one sample in each registry", snap)
	}
	ResetLatency()
	if snap := LatencySnapshot(); len(snap.Stages)+len(snap.Routes)+len(snap.Backends) != 0 {
		t.Fatalf("after ResetLatency: %+v", snap)
	}
}
