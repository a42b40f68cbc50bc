package sched

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/lb"
	"repro/internal/obs"
)

func TestBackendRegistry(t *testing.T) {
	names := Backends()
	want := map[string]bool{"classic": true, "portfolio": true}
	for name := range want {
		found := false
		for _, n := range names {
			if n == name {
				found = true
			}
		}
		if !found {
			t.Errorf("Backends() = %v, missing %q", names, name)
		}
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Backends() = %v not sorted", names)
		}
	}

	b, err := BackendByName("")
	if err != nil {
		t.Fatalf("BackendByName(\"\"): %v", err)
	}
	if b.Name() != DefaultBackend {
		t.Errorf("empty name resolved to %q, want %q", b.Name(), DefaultBackend)
	}
	if _, err := BackendByName("no-such-backend"); !errors.Is(err, ErrUnknownBackend) {
		t.Errorf("unknown backend error = %v, want ErrUnknownBackend", err)
	}
}

func TestRegisterBackendPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("empty name", func() { RegisterBackend(testBackend{name: ""}) })
	mustPanic("duplicate", func() { RegisterBackend(classicBackend{}) })
}

// testBackend is a configurable fake for registry and portfolio tests.
type testBackend struct {
	name string
	fn   func(ctx context.Context, opt *Optimizer, params Params) (*Schedule, error)
}

func (b testBackend) Name() string { return b.name }

func (b testBackend) Schedule(ctx context.Context, opt *Optimizer, params Params) (*Schedule, error) {
	return b.fn(ctx, opt, params)
}

// registerRaceFakes registers, once for the whole test binary, a backend
// that always fails and a backend that returns a corrupt schedule. The
// portfolio must tolerate both: failures are skipped and corrupt results
// are rejected by verification.
var registerRaceFakes = func() func() {
	var done bool
	return func() {
		if done {
			return
		}
		done = true
		RegisterBackend(testBackend{
			name: "test-failing",
			fn: func(ctx context.Context, opt *Optimizer, params Params) (*Schedule, error) {
				return nil, fmt.Errorf("always fails")
			},
		})
		RegisterBackend(testBackend{
			name: "test-corrupt",
			fn: func(ctx context.Context, opt *Optimizer, params Params) (*Schedule, error) {
				sch, err := opt.Run(params.Defaults())
				if err != nil {
					return nil, err
				}
				sch.Makespan = 1 // a lie Verify must catch
				return sch, nil
			},
		})
	}
}()

func TestScheduleBackendClassicMatchesSweepBest(t *testing.T) {
	s := bench.D695()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{TAMWidth: 32, Workers: 1}
	want, err := opt.SweepBest(params, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := params
	p.Backend = "classic"
	got, err := opt.ScheduleBackend(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != want.Makespan {
		t.Fatalf("classic backend makespan %d, SweepBest %d", got.Makespan, want.Makespan)
	}
	// The echoed Params differ only by the Backend field.
	wantParams := want.Params
	wantParams.Backend = got.Params.Backend
	if !reflect.DeepEqual(got.Params, wantParams) {
		t.Fatalf("classic backend params %+v, SweepBest %+v", got.Params, want.Params)
	}
	if !reflect.DeepEqual(got.Assignments, want.Assignments) {
		t.Fatal("classic backend packed different pieces than SweepBest")
	}
}

// TestClassicSpanCountsWork: a traced classic call on d695 at W=32 with
// one worker records the sweep's work on its backend/classic span, the
// same five numbers on every repeat: 23 representatives, whose 69 runs
// are 67 started and 2 skipped as repeats of a smaller slack's run, 63
// of them stopped by the cutoff, and 487 Update events. An untraced call
// returns the same schedule. Per-run sorting or a sweep that stops
// skipping would move these numbers.
func TestClassicSpanCountsWork(t *testing.T) {
	opt, err := New(bench.D695(), DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{TAMWidth: 32, Workers: 1}
	want, err := opt.ScheduleBackend(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]int{"reps": 23, "runs": 67, "skipped": 2, "cut": 63, "events": 487}
	for range 5 {
		tracer := obs.NewTracer(1)
		got, traceID, err := func() (*Schedule, string, error) {
			ctx, root := tracer.StartTrace(context.Background(), "test")
			defer root.End()
			sch, err := opt.ScheduleBackend(ctx, params)
			return sch, root.TraceID(), err
		}()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("the traced schedule differs from the untraced one")
		}
		td, ok := tracer.Get(traceID)
		if !ok || len(td.Root.Children) != 1 || td.Root.Children[0].Name != "backend/classic" {
			t.Fatalf("trace %+v: want one backend/classic child", td.Root)
		}
		attrs := td.Root.Children[0].Attrs
		for name, n := range pinned {
			if got, _ := attrs[name].(int); got != n {
				t.Errorf("backend/classic %s = %v, want %d", name, attrs[name], n)
			}
		}
		runs, _ := attrs["runs"].(int)
		skipped, _ := attrs["skipped"].(int)
		if reps, _ := attrs["reps"].(int); runs+skipped != reps*len(DefaultInsertSlacks()) {
			t.Errorf("runs %d + skipped %d != reps %d × %d slacks", runs, skipped, reps, len(DefaultInsertSlacks()))
		}
	}
}

// TestOptimalityFloor: the portfolio's early-exit floor is LB(W) from the
// optimizer's cache, equal to lb.Compute on a fresh design, and 0 for
// parameters the cache cannot serve.
func TestOptimalityFloor(t *testing.T) {
	s := bench.D695()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{8, 32, 64, 68} {
		want, err := lb.Compute(s, w, DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		if got := optimalityFloor(opt, Params{TAMWidth: w}); got != want.Value() {
			t.Errorf("W=%d: floor %d, lb.Compute %d", w, got, want.Value())
		}
	}
	for _, p := range []Params{{TAMWidth: 0}, {TAMWidth: 32, MaxWidth: DefaultMaxWidth + 1}} {
		if got := optimalityFloor(opt, p); got != 0 {
			t.Errorf("%+v: floor %d, want 0", p, got)
		}
	}
}

// TestPortfolioStopsAtLowerBound: a racer whose verified schedule reaches
// the optimality floor cancels the racers after it. Classic reaches LB(W)
// on d695 at W=80; the racer after it only returns once it is cancelled.
// When classic reaches the floor before a worker claims the waiter, the
// race never starts it, so both outcomes pass: the waiter never started,
// or it started and was cancelled.
func TestPortfolioStopsAtLowerBound(t *testing.T) {
	s := bench.D695()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{TAMWidth: 80, Workers: 2}
	floor := optimalityFloor(opt, params)
	started, cancelled := make(chan struct{}), make(chan struct{})
	waiter := testBackend{name: "test-waiter", fn: func(ctx context.Context, opt *Optimizer, params Params) (*Schedule, error) {
		close(started)
		select {
		case <-ctx.Done():
			close(cancelled)
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, errors.New("never cancelled")
		}
	}}
	pb := &portfolioBackend{stats: make(map[string]*BackendRaceStats)}
	best, err := pb.race(context.Background(), opt, params, []Backend{classicBackend{}, waiter}, floor)
	if err != nil {
		t.Fatal(err)
	}
	if best.Makespan != floor {
		t.Fatalf("winner makespan %d, want the floor %d", best.Makespan, floor)
	}
	select {
	case <-started:
	default:
		return // the race never started the waiter
	}
	// The race returns without waiting for a cancelled racer to exit.
	select {
	case <-cancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("reaching the floor did not cancel the other racer")
	}
}

func TestPortfolioNeverWorseAndVerified(t *testing.T) {
	registerRaceFakes()
	s := bench.Demo()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{TAMWidth: 16, Workers: 1}
	classic, err := opt.SweepBest(params, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := params
	p.Backend = "portfolio"
	got, err := opt.ScheduleBackend(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan > classic.Makespan {
		t.Errorf("portfolio makespan %d worse than classic %d", got.Makespan, classic.Makespan)
	}
	if got.Makespan == 1 {
		t.Error("portfolio returned the corrupt racer's schedule")
	}
	if err := opt.Verify(got); err != nil {
		t.Errorf("portfolio result fails verification: %v", err)
	}
	if err := CheckInvariants(s, got); err != nil {
		t.Errorf("portfolio result fails invariants: %v", err)
	}
}

func TestPortfolioCancelled(t *testing.T) {
	registerRaceFakes()
	s := bench.D695()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := Params{TAMWidth: 32, Workers: 1, Backend: "portfolio"}
	if _, err := opt.ScheduleBackend(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled portfolio returned %v, want context.Canceled", err)
	}
}

func TestScheduleBackendUnknown(t *testing.T) {
	s := bench.Demo()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	_, err = opt.ScheduleBackend(context.Background(), Params{TAMWidth: 16, Backend: "bogus"})
	if !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("unknown backend error = %v, want ErrUnknownBackend", err)
	}
}

func TestIsDefaultBackend(t *testing.T) {
	for name, want := range map[string]bool{
		"":             true,
		DefaultBackend: true,
		"rectpack":     false,
		"portfolio":    false,
		"nope":         false,
	} {
		if got := IsDefaultBackend(name); got != want {
			t.Errorf("IsDefaultBackend(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestOptimizerAccessorsAndUnknownCoreError(t *testing.T) {
	s := bench.Demo()
	o, err := New(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	sets := o.ParetoSets()
	if len(sets) != len(s.Cores) {
		t.Errorf("ParetoSets() has %d entries, want %d", len(sets), len(s.Cores))
	}
	for _, c := range s.Cores {
		if sets[c.ID] == nil {
			t.Errorf("ParetoSets() missing core %d", c.ID)
		}
	}
	e := &UnknownCoreError{CoreID: 7}
	if got := e.Error(); !strings.Contains(got, "7") {
		t.Errorf("UnknownCoreError.Error() = %q, want the core ID in it", got)
	}
}

// TestUnknownBudgetCore: a positive budget for a core the SOC does not
// define fails every scheduling call with *UnknownCoreError naming the
// lowest such core, before a backend may decline it, and a budget ≤ 0 for
// such a core is no budget at all.
func TestUnknownBudgetCore(t *testing.T) {
	registerAcctFake()
	acctFake.mode.Store("decline")
	t.Cleanup(func() { acctFake.mode.Store("off") })
	opt, err := New(bench.Demo(), DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	bad := map[int]int{2: 1, 9: 1, 0: 2, 11: 0}
	for _, tc := range []struct {
		name string
		run  func(Params) (*Schedule, error)
	}{
		{"a single run", opt.Run},
		{"a backend that declines", func(p Params) (*Schedule, error) {
			p.Backend = "test-accounting"
			return opt.ScheduleBackend(ctx, p)
		}},
		{"the portfolio", func(p Params) (*Schedule, error) {
			p.Backend = "portfolio"
			return opt.ScheduleBackend(ctx, p)
		}},
	} {
		_, err := tc.run(Params{TAMWidth: 16, Workers: 1, MaxPreemptions: bad})
		var uce *UnknownCoreError
		if !errors.As(err, &uce) || uce.CoreID != 0 || !uce.Budget {
			t.Errorf("%s: error = %v, want a budget's *UnknownCoreError for core 0", tc.name, err)
		} else if want := "sched: preemption budget references unknown core 0"; err.Error() != want {
			t.Errorf("%s: error %q, want %q", tc.name, err, want)
		}
	}
	if _, err := opt.Run(Params{TAMWidth: 16, MaxPreemptions: map[int]int{2: 1, 9: 0, -1: -1}}); err != nil {
		t.Errorf("budgets ≤ 0 for unknown cores: %v", err)
	}
}
