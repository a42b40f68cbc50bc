package datavol

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/sched"
)

// TestRunContextMatchesRun asserts nil and Background contexts leave
// RunWithContext's sweep byte-identical to Run's, sequential and parallel.
func TestRunContextMatchesRun(t *testing.T) {
	s, err := bench.ByName("demo8")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{WidthLo: 4, WidthHi: 20, Percents: []int{1, 5, 10}, Deltas: []int{0, 2}}
	for _, workers := range []int{1, 3} {
		cfg.Workers = workers
		want, err := Run(s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, ctx := range []context.Context{nil, context.Background()} {
			opt, err := sched.New(s, sched.DefaultMaxWidth)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunWithContext(ctx, opt, cfg)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("workers=%d: RunWithContext differs from Run", workers)
			}
		}
	}
}

// TestRunWithContextCancelled asserts a pre-cancelled context aborts the
// sweep immediately with the context's error.
func TestRunWithContextCancelled(t *testing.T) {
	s, err := bench.ByName("demo8")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		sw, err := RunWithContext(ctx, opt, Config{WidthLo: 4, WidthHi: 40, Workers: workers})
		if sw != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got (%v, %v), want (nil, context.Canceled)", workers, sw, err)
		}
	}
}

// TestRunWithContextCancelMidSweep cancels a long sweep shortly after it
// starts and asserts the workers stop promptly: the call must return far
// sooner than the full sweep would take, with the context's error.
func TestRunWithContextCancelMidSweep(t *testing.T) {
	s, err := bench.ByName("p93791like")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		// The full 4..80 sweep over the default parameter grid takes on the
		// order of seconds; the per-grid-point cancellation checks fire
		// every few hundred microseconds.
		_, err := RunWithContext(ctx, opt, Config{WidthLo: 4, WidthHi: 80, Workers: 2})
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if waited := time.Since(start); waited > 5*time.Second {
			t.Fatalf("cancellation took %v to unwind", waited)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled sweep never returned")
	}
}
