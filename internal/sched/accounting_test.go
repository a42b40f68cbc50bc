package sched

// Race-accounting audit: one portfolio call contributes at most one
// counter (Won / Lost / Failed / TimedOut / Declined) per
// backend, so WinRate and the /v1/backends rows never double-count a
// race. The table drives a switchable fake through every synthetic
// outcome and checks both the fake's own row and the partition invariant
// across the whole registry.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
)

// acctFake is the switchable backend for accounting tests. Outside a
// test it fails immediately, like the other registered fakes.
var acctFake = struct {
	once sync.Once
	mode atomic.Value // "off" | "valid" | "overbudget" | "fail" | "decline"
}{}

type acctBackend struct{}

func (acctBackend) Name() string { return "test-accounting" }

// Schedule answers "valid" with the classic sweep's schedule, and
// "overbudget" with that schedule's layouts, one core split once
// (splitOnce), assembled under the request's params. The race requests
// grant no budget, so the split is past it.
func (acctBackend) Schedule(ctx context.Context, opt *Optimizer, params Params) (*Schedule, error) {
	switch mode, _ := acctFake.mode.Load().(string); mode {
	case "valid", "overbudget":
		p := params
		p.Backend = ""
		sch, err := opt.SweepBestContext(ctx, p, nil, nil)
		if err != nil || mode == "valid" {
			return sch, err
		}
		layouts, k := splitOnce(opt, sch)
		if k < 0 {
			return nil, errors.New("test-accounting: no core to split")
		}
		return opt.Assemble(params, layouts)
	}
	return nil, errors.New("test-accounting: injected failure")
}

func (acctBackend) Declines(params Params) (reason string, declined bool) {
	if mode, _ := acctFake.mode.Load().(string); mode == "decline" {
		return "synthetic decline", true
	}
	return "", false
}

func registerAcctFake() {
	acctFake.once.Do(func() {
		acctFake.mode.Store("off")
		RegisterBackend(acctBackend{})
	})
}

// counterSum is every per-race counter of one row; the partition
// invariant says one portfolio call adds at most 1 to it per backend.
func counterSum(s BackendRaceStats) int64 {
	return s.Won + s.Lost + s.Failed + s.TimedOut + s.Declined
}

func TestPortfolioRaceAccounting(t *testing.T) {
	registerAcctFake()
	s := bench.Demo()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	race := func(t *testing.T) {
		t.Helper()
		p := Params{TAMWidth: 16, Workers: 1, Backend: "portfolio"}
		if _, err := opt.ScheduleBackend(context.Background(), p); err != nil {
			t.Fatalf("portfolio: %v", err)
		}
	}

	cases := []struct {
		name  string
		mode  string
		races int
		want  func(t *testing.T, st BackendRaceStats)
	}{
		{"lost races count Lost only", "valid", 2, func(t *testing.T, st BackendRaceStats) {
			// The fake mirrors the classic sweep, so it never beats the
			// winner: every race is a loss, nothing else.
			if st.Lost != 2 || counterSum(st) != 2 {
				t.Errorf("want Lost=2 and no other counters, got %+v", st)
			}
			if st.WinRate != 0 {
				t.Errorf("winRate = %v, want 0 for an always-losing backend", st.WinRate)
			}
		}},
		{"failures count Failed only", "fail", 2, func(t *testing.T, st BackendRaceStats) {
			if st.Failed != 2 || counterSum(st) != 2 {
				t.Errorf("want Failed=2 and no other counters, got %+v", st)
			}
		}},
		{"a split past its budget counts Failed only", "overbudget", 2, func(t *testing.T, st BackendRaceStats) {
			// The fake's schedule is whole and conflict-free, but it splits
			// a core the request gives no budget, so Verify rejects it
			// before it may win or lose.
			if st.Failed != 2 || counterSum(st) != 2 {
				t.Errorf("want Failed=2 and no other counters, got %+v", st)
			}
		}},
		{"declines count Declined only", "decline", 3, func(t *testing.T, st BackendRaceStats) {
			if st.Declined != 3 || counterSum(st) != 3 {
				t.Errorf("want Declined=3 and no other counters, got %+v", st)
			}
		}},
		{"failures in a row keep racing", "fail", 4, func(t *testing.T, st BackendRaceStats) {
			// No earlier race benches a backend: each of the four races
			// runs it and counts its failure.
			if st.Failed != 4 || counterSum(st) != 4 {
				t.Errorf("want Failed=4 and no other counters, got %+v", st)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ResetPortfolioHealth()
			t.Cleanup(ResetPortfolioHealth)
			acctFake.mode.Store(tc.mode)
			t.Cleanup(func() { acctFake.mode.Store("off") })
			for i := 0; i < tc.races; i++ {
				race(t)
			}
			stats := PortfolioStats()
			tc.want(t, stats["test-accounting"])
			// Partition invariant for every backend: n races contribute at
			// most n counters — a racer cancelled after the race is decided
			// stays uncounted, but no race is ever counted twice.
			for name, st := range stats {
				if got := counterSum(st); got > int64(tc.races) {
					t.Errorf("backend %s: %d counters over %d races (%+v)", name, got, tc.races, st)
				}
			}
		})
	}

	// Declining is also honest on direct dispatch: the typed error callers
	// (and the service's 422 mapping) rely on.
	t.Run("direct dispatch returns ErrBackendDeclined", func(t *testing.T) {
		acctFake.mode.Store("decline")
		t.Cleanup(func() { acctFake.mode.Store("off") })
		p := Params{TAMWidth: 16, Backend: "test-accounting"}
		_, err := opt.ScheduleBackend(context.Background(), p)
		if !errors.Is(err, ErrBackendDeclined) {
			t.Fatalf("err = %v, want ErrBackendDeclined", err)
		}
	})
}
