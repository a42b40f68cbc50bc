package sched

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
)

// resilFakes are switchable misbehaving backends for portfolio resilience
// tests. Registered once per binary (the registry has no unregister), they
// return an immediate error while their switch is off so unrelated
// portfolio tests just see one more failing racer.
var resilFakes = struct {
	once    sync.Once
	hang    atomic.Bool   // "test-hung" blocks, ignoring ctx, while set
	release chan struct{} // closed once to reap abandoned test-hung goroutines
	panics  atomic.Bool   // "test-panicking" panics while set
	flaky   atomic.Bool   // "test-flaky" fails while set, else runs the sweep
}{release: make(chan struct{})}

func registerResilFakes() {
	resilFakes.once.Do(func() {
		RegisterBackend(testBackend{
			name: "test-hung",
			fn: func(ctx context.Context, opt *Optimizer, params Params) (*Schedule, error) {
				if !resilFakes.hang.Load() {
					return nil, errors.New("test-hung: off")
				}
				// Deliberately ignores ctx — the pathological racer the
				// per-racer deadline exists for.
				<-resilFakes.release
				return nil, errors.New("test-hung: released")
			},
		})
		RegisterBackend(testBackend{
			name: "test-panicking",
			fn: func(ctx context.Context, opt *Optimizer, params Params) (*Schedule, error) {
				if resilFakes.panics.Load() {
					panic("test-panicking: boom")
				}
				return nil, errors.New("test-panicking: off")
			},
		})
		RegisterBackend(testBackend{
			name: "test-flaky",
			fn: func(ctx context.Context, opt *Optimizer, params Params) (*Schedule, error) {
				if resilFakes.flaky.Load() {
					return nil, errors.New("test-flaky: injected failure")
				}
				p := params
				p.Backend = ""
				return opt.SweepBestContext(ctx, p, nil, nil)
			},
		})
	})
}

// TestPortfolioHungRacerBoundedByBackendTimeout is the regression test for
// the satellite fix: a racer that ignores cancellation entirely cannot
// delay the portfolio past BackendTimeout — it is abandoned in place.
func TestPortfolioHungRacerBoundedByBackendTimeout(t *testing.T) {
	registerRaceFakes()
	registerResilFakes()
	ResetPortfolioHealth()
	t.Cleanup(ResetPortfolioHealth)
	resilFakes.hang.Store(true)
	t.Cleanup(func() {
		resilFakes.hang.Store(false)
		close(resilFakes.release) // reap abandoned racer goroutines
	})

	s := bench.Demo()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{TAMWidth: 16, Workers: 1, Backend: "portfolio", BackendTimeout: 200 * time.Millisecond}
	start := time.Now()
	sch, err := opt.ScheduleBackend(context.Background(), p)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("portfolio with hung racer: %v", err)
	}
	if err := opt.Verify(sch); err != nil {
		t.Fatalf("winner fails verification: %v", err)
	}
	// Generous CI bound: the only slow step allowed is the hung racer's
	// 200ms deadline; everything else on Demo is milliseconds.
	if elapsed > 5*time.Second {
		t.Fatalf("hung racer delayed the race %v, want prompt abandonment", elapsed)
	}
	stats := PortfolioStats()
	if got := stats["test-hung"].TimedOut; got != 1 {
		t.Errorf("test-hung timedOut = %d, want 1", got)
	}
	if got := stats[DefaultBackend].Won; got != 1 {
		t.Errorf("classic won = %d, want 1 (stats: %+v)", got, stats)
	}
}

// TestPortfolioContainsRacerPanic: a panicking backend is recorded as a
// failure, and the race still produces a verified schedule.
func TestPortfolioContainsRacerPanic(t *testing.T) {
	registerRaceFakes()
	registerResilFakes()
	ResetPortfolioHealth()
	t.Cleanup(ResetPortfolioHealth)
	resilFakes.panics.Store(true)
	t.Cleanup(func() { resilFakes.panics.Store(false) })

	s := bench.Demo()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{TAMWidth: 16, Workers: 1, Backend: "portfolio"}
	sch, err := opt.ScheduleBackend(context.Background(), p)
	if err != nil {
		t.Fatalf("portfolio with panicking racer: %v", err)
	}
	if err := opt.Verify(sch); err != nil {
		t.Fatalf("winner fails verification: %v", err)
	}
	if got := PortfolioStats()["test-panicking"].Failed; got != 1 {
		t.Errorf("test-panicking failed = %d, want 1", got)
	}
}

// TestPortfolioRacesBackendAfterRepeatedFailures: no state from earlier
// races decides who runs. A backend that failed four races in a row is
// raced on the fifth, and once it recovers it wins — here with classic
// killed by its failpoint, so the recovered backend is the only finisher.
func TestPortfolioRacesBackendAfterRepeatedFailures(t *testing.T) {
	registerRaceFakes()
	registerResilFakes()
	ResetPortfolioHealth()
	t.Cleanup(ResetPortfolioHealth)
	resilFakes.flaky.Store(true)
	t.Cleanup(func() { resilFakes.flaky.Store(false) })

	s := bench.Demo()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{TAMWidth: 16, Workers: 1, Backend: "portfolio"}
	const failures = 4
	for i := 0; i < failures; i++ {
		if _, err := opt.ScheduleBackend(context.Background(), p); err != nil {
			t.Fatalf("race %d: %v", i, err)
		}
	}
	if got := PortfolioStats()["test-flaky"].Failed; got != failures {
		t.Fatalf("test-flaky failed = %d over %d failing races, want %d: every race must run it", got, failures, failures)
	}

	resilFakes.flaky.Store(false)
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: siteClassicSchedule, Mode: chaos.ModeError},
	}})
	defer plan.Disable()
	sch, err := opt.ScheduleBackend(context.Background(), p)
	if err != nil {
		t.Fatalf("race after recovery: %v", err)
	}
	if err := opt.Verify(sch); err != nil {
		t.Fatalf("winner fails verification: %v", err)
	}
	if got := PortfolioStats()["test-flaky"]; got.Won != 1 || got.Failed != failures {
		t.Errorf("test-flaky record %+v, want Won=1 Failed=%d", got, failures)
	}
}

// TestPortfolioAllBackendsDead: when literally everything fails the
// portfolio reports the failure instead of hanging or returning nil.
func TestPortfolioAllBackendsDead(t *testing.T) {
	registerRaceFakes()
	registerResilFakes()
	ResetPortfolioHealth()
	t.Cleanup(ResetPortfolioHealth)
	resilFakes.flaky.Store(true)
	t.Cleanup(func() { resilFakes.flaky.Store(false) })

	s := bench.Demo()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: siteClassicSchedule, Mode: chaos.ModeError},
	}})
	defer plan.Disable()
	p := Params{TAMWidth: 16, Workers: 1, Backend: "portfolio"}
	sch, err := opt.ScheduleBackend(context.Background(), p)
	if err == nil {
		t.Fatalf("all-dead portfolio returned %v, want error", sch)
	}
	var ie *chaos.InjectedError
	if !errors.As(err, &ie) {
		t.Errorf("all-dead error %v does not surface the racer failure", err)
	}
}
