package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
)

// TestSweepBestContextMatchesSweepBest asserts the satellite guarantee:
// nil and Background contexts leave SweepBest's result byte-identical, on
// both the sequential and parallel paths.
func TestSweepBestContextMatchesSweepBest(t *testing.T) {
	s, err := bench.ByName("demo8")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		want, err := opt.SweepBest(Params{TAMWidth: 24, Workers: workers}, detPercents, detDeltas)
		if err != nil {
			t.Fatal(err)
		}
		for _, ctx := range []context.Context{nil, context.Background()} {
			got, err := opt.SweepBestContext(ctx, Params{TAMWidth: 24, Workers: workers}, detPercents, detDeltas)
			if err != nil {
				t.Fatalf("workers=%d ctx=%v: %v", workers, ctx, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("workers=%d ctx=%v: SweepBestContext differs from SweepBest", workers, ctx)
			}
		}
	}
}

// TestSweepBestContextCancelled asserts a pre-cancelled context aborts the
// sweep with the context's error on both paths.
func TestSweepBestContextCancelled(t *testing.T) {
	s, err := bench.ByName("d695")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		sch, err := opt.SweepBestContext(ctx, Params{TAMWidth: 32, Workers: workers}, nil, nil)
		if sch != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got (%v, %v), want (nil, context.Canceled)", workers, sch, err)
		}
	}
}

// countingCtx is a context whose Err reports DeadlineExceeded from its
// turn-th call on, so a test can expire a deadline at an exact point of a
// run without a clock.
type countingCtx struct {
	context.Context
	turn  int64
	calls atomic.Int64
}

func (c *countingCtx) Err() error {
	if c.calls.Add(1) >= c.turn {
		return context.DeadlineExceeded
	}
	return nil
}

// TestRunnerChecksContext: a classic run checks its context every
// ctxCheckEvents Update events, in a sweep's grid points and in
// ScheduleItem's single run alike. Wherever the deadline expires, even
// inside the last grid point, the call returns ctx's error and no
// schedule; a context that never expires leaves both results
// byte-identical to the context-free calls.
func TestRunnerChecksContext(t *testing.T) {
	s := bench.Synth(bench.SynthConfig{Cores: 150, Seed: 3})
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	sweepParams := Params{TAMWidth: 32, InsertSlack: DefaultInsertSlack, Workers: 1}
	runParams := Params{TAMWidth: 32, Percent: 5, Delta: 1}
	wantSweep, err := opt.SweepBest(sweepParams, detPercents, detDeltas)
	if err != nil {
		t.Fatal(err)
	}
	wantRun, err := opt.Run(runParams)
	if err != nil {
		t.Fatal(err)
	}
	if wantRun.Events < 2*ctxCheckEvents {
		t.Fatalf("a run takes %d events; the test needs at least %d", wantRun.Events, 2*ctxCheckEvents)
	}
	calls := []struct {
		name   string
		call   func(context.Context) (*Schedule, error)
		want   *Schedule
		checks int64 // Err calls of a context that never expires; 0: not pinned
	}{
		{"sweep", func(ctx context.Context) (*Schedule, error) {
			return opt.SweepBestContext(ctx, sweepParams, detPercents, detDeltas)
		}, wantSweep, 0},
		{"single run", func(ctx context.Context) (*Schedule, error) {
			return opt.ScheduleItem(ctx, BatchItem{Params: runParams})
		}, wantRun, int64(wantRun.Events / ctxCheckEvents)},
	}
	for _, c := range calls {
		never := &countingCtx{Context: context.Background(), turn: math.MaxInt64}
		got, err := c.call(never)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: a context that never expires changed the result (err %v)", c.name, err)
		}
		n := never.calls.Load()
		if c.checks > 0 && n != c.checks {
			t.Fatalf("%s checked its context %d times, want %d", c.name, n, c.checks)
		}
		for turn := int64(1); turn <= n; turn++ {
			ctx := &countingCtx{Context: context.Background(), turn: turn}
			if sch, err := c.call(ctx); sch != nil || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("%s: deadline at Err call %d of %d: got (%v, %v), want (nil, DeadlineExceeded)", c.name, turn, n, sch, err)
			}
		}
	}
}

// TestForEachContextStopsClaiming asserts cancellation mid-loop stops new
// indices promptly: once cancel has returned, each worker starts at most
// one more call (an index it claimed before it could see the cancel).
// Calls other workers start while cancel is still running are not counted.
func TestForEachContextStopsClaiming(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls, late atomic.Int64
		var cancelled atomic.Bool
		err := ForEachContext(ctx, workers, 100000, func(i int) {
			if cancelled.Load() {
				late.Add(1)
			}
			if calls.Add(1) == 5 {
				cancel()
				cancelled.Store(true)
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := late.Load(); n > int64(workers) {
			t.Fatalf("workers=%d: %d calls started after cancel returned", workers, n)
		}
		cancel()
	}
}

// TestForEachContextNilMatchesForEach asserts a nil context runs every
// index, exactly like ForEach.
func TestForEachContextNilMatchesForEach(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		if err := ForEachContext(nil, workers, 1000, func(i int) { calls.Add(1) }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if n := calls.Load(); n != 1000 {
			t.Fatalf("workers=%d: %d calls, want 1000", workers, n)
		}
	}
}

// TestForEachContextPanicReachesCaller: a panic in fn reaches the caller's
// recover with its value whatever the worker count. On the parallel path
// it is re-raised on the calling goroutine once every other worker has
// returned, so no fn call outlives ForEachContext.
func TestForEachContextPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var running atomic.Int64
		var got any
		func() {
			defer func() { got = recover() }()
			ForEachContext(context.Background(), workers, 100, func(i int) {
				running.Add(1)
				defer running.Add(-1)
				if i == 37 {
					panic(fmt.Sprintf("boom %d", i))
				}
				time.Sleep(100 * time.Microsecond)
			})
		}()
		if got != "boom 37" {
			t.Fatalf("workers=%d: recovered %v, want \"boom 37\"", workers, got)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("workers=%d: %d fn calls still running after the panic reached the caller", workers, n)
		}
	}
}
