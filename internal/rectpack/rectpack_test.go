package rectpack

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/sched"
	"repro/internal/schedio"
)

func optimizer(t testing.TB, name string) *sched.Optimizer {
	t.Helper()
	s, err := bench.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	return opt
}

func TestRegistered(t *testing.T) {
	b, err := sched.BackendByName(Name)
	if err != nil {
		t.Fatalf("rectpack not registered: %v", err)
	}
	if b.Name() != Name {
		t.Fatalf("registered name %q, want %q", b.Name(), Name)
	}
}

func TestScheduleVerifiesAcrossBenchmarks(t *testing.T) {
	for _, name := range []string{"d695", "demo8", "p22810like", "p34392like", "p93791like"} {
		opt := optimizer(t, name)
		for _, w := range []int{8, 16, 32, 64} {
			sch, err := New().Schedule(context.Background(), opt, sched.Params{TAMWidth: w})
			if err != nil {
				t.Fatalf("%s W=%d: %v", name, w, err)
			}
			if err := opt.Verify(sch); err != nil {
				t.Errorf("%s W=%d: verify: %v", name, w, err)
			}
			if err := sched.CheckInvariants(opt.SOC(), sch); err != nil {
				t.Errorf("%s W=%d: invariants: %v", name, w, err)
			}
			if sch.Params.TAMWidth != w || sch.TAMWidth != w {
				t.Errorf("%s W=%d: echoed width %d/%d", name, w, sch.Params.TAMWidth, sch.TAMWidth)
			}
		}
	}
}

func TestScheduleHonorsPowerBudget(t *testing.T) {
	opt := optimizer(t, "d695")
	budget := sched.DefaultPowerBudget(opt.SOC(), 110)
	sch, err := New().Schedule(context.Background(), opt, sched.Params{TAMWidth: 16, PowerMax: budget})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.CheckInvariants(opt.SOC(), sch); err != nil {
		t.Fatalf("power-constrained schedule: %v", err)
	}
}

func TestScheduleNonPreemptive(t *testing.T) {
	opt := optimizer(t, "d695")
	mp, err := opt.LargerCorePreemptions(3)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := New().Schedule(context.Background(), opt, sched.Params{TAMWidth: 24, MaxPreemptions: mp})
	if err != nil {
		t.Fatal(err)
	}
	for id, a := range sch.Assignments {
		if a.Preemptions != 0 || len(a.Pieces) != 1 || a.PenaltyCycles != 0 {
			t.Errorf("core %d: rectpack preempted (%d pieces, %d preemptions)", id, len(a.Pieces), a.Preemptions)
		}
	}
}

func TestScheduleDeterministic(t *testing.T) {
	var outs [2][]byte
	for i := range outs {
		opt := optimizer(t, "p22810like")
		sch, err := New().Schedule(context.Background(), opt, sched.Params{TAMWidth: 32})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := schedio.Save(&buf, sch); err != nil {
			t.Fatal(err)
		}
		outs[i] = buf.Bytes()
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatal("rectpack schedules differ across runs")
	}
}

func TestScheduleErrors(t *testing.T) {
	opt := optimizer(t, "demo8")
	if _, err := New().Schedule(context.Background(), opt, sched.Params{TAMWidth: 0}); err == nil {
		t.Error("TAMWidth 0 accepted")
	}
	if _, err := New().Schedule(context.Background(), opt, sched.Params{TAMWidth: 16, MaxWidth: 999}); err == nil {
		t.Error("MaxWidth above the optimizer cap accepted")
	}
}

func TestScheduleCancelled(t *testing.T) {
	opt := optimizer(t, "demo8")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New().Schedule(ctx, opt, sched.Params{TAMWidth: 16}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled rectpack returned %v, want context.Canceled", err)
	}
}

func TestScheduleRespectsMaxWidthCap(t *testing.T) {
	opt := optimizer(t, "d695")
	sch, err := New().Schedule(context.Background(), opt, sched.Params{TAMWidth: 32, MaxWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	for id, a := range sch.Assignments {
		if a.Width > 4 {
			t.Errorf("core %d assigned width %d above MaxWidth 4", id, a.Width)
		}
	}
	if err := opt.Verify(sch); err != nil {
		t.Fatal(err)
	}
}

// engineCase is one backend of the engine with params in its regime.
type engineCase struct {
	b      sched.Backend
	params sched.Params
}

// engineCases returns each backend of the engine with d695 params it
// accepts.
func engineCases(t *testing.T, opt *sched.Optimizer) []engineCase {
	return []engineCase{
		{New(), sched.Params{TAMWidth: 24}},
		{NewPreempt(), preemptParams(t, opt, 24, 2)},
		{NewAnneal(), sched.Params{TAMWidth: 24}},
	}
}

// TestScheduleNilContext: per the sched.Backend contract a nil ctx
// behaves like context.Background(), byte for byte.
func TestScheduleNilContext(t *testing.T) {
	opt := optimizer(t, "d695")
	var nilCtx context.Context
	for _, tc := range engineCases(t, opt) {
		var docs [2][]byte
		for i, ctx := range []context.Context{nilCtx, context.Background()} {
			sch, err := tc.b.Schedule(ctx, opt, tc.params)
			if err != nil {
				t.Fatalf("%s: %v", tc.b.Name(), err)
			}
			var buf bytes.Buffer
			if err := schedio.Save(&buf, sch); err != nil {
				t.Fatal(err)
			}
			docs[i] = buf.Bytes()
		}
		if !bytes.Equal(docs[0], docs[1]) {
			t.Errorf("%s: nil ctx schedule differs from context.Background()", tc.b.Name())
		}
	}
}

// TestScheduleRejectsBadParams: a power budget below a single core's test
// power, or a negative width cap, fails up front in every backend.
func TestScheduleRejectsBadParams(t *testing.T) {
	opt := optimizer(t, "d695")
	for _, tc := range engineCases(t, opt) {
		for _, bad := range []func(*sched.Params){
			func(p *sched.Params) { p.PowerMax = 1 },
			func(p *sched.Params) { p.MaxWidth = -1 },
		} {
			params := tc.params
			bad(&params)
			if _, err := tc.b.Schedule(context.Background(), opt, params); err == nil {
				t.Errorf("%s accepted PowerMax %d, MaxWidth %d", tc.b.Name(), params.PowerMax, params.MaxWidth)
			}
		}
	}
}

// countdownCtx reports cancellation from the n-th Err call on, so a test
// can cancel a search at any one of its ctx checks.
type countdownCtx struct {
	context.Context
	calls, n int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls >= c.n {
		return context.Canceled
	}
	return nil
}

// TestScheduleCancelledMidSearch cancels each backend at its first check,
// in seed decoding, halfway through, and at the emission check: every
// stage of the search must stop with the context's error.
func TestScheduleCancelledMidSearch(t *testing.T) {
	opt := optimizer(t, "d695")
	for _, tc := range engineCases(t, opt) {
		full := &countdownCtx{Context: context.Background(), n: math.MaxInt}
		if _, err := tc.b.Schedule(full, opt, tc.params); err != nil {
			t.Fatalf("%s: %v", tc.b.Name(), err)
		}
		for _, n := range []int{1, len(opt.SOC().Cores) + 1, full.calls / 2, full.calls} {
			ctx := &countdownCtx{Context: context.Background(), n: n}
			if _, err := tc.b.Schedule(ctx, opt, tc.params); !errors.Is(err, context.Canceled) {
				t.Errorf("%s cancelled at check %d of %d: err %v, want context.Canceled", tc.b.Name(), n, full.calls, err)
			}
		}
	}
}

// TestFailpoints: each backend's failpoint fails that backend, and only
// that one.
func TestFailpoints(t *testing.T) {
	opt := optimizer(t, "d695")
	sites := map[string]string{Name: siteSchedule, PreemptName: sitePreempt, AnnealName: siteAnneal}
	cases := engineCases(t, opt)
	for _, tc := range cases {
		plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{{Site: sites[tc.b.Name()], Mode: chaos.ModeError}}})
		for _, other := range cases {
			_, err := other.b.Schedule(context.Background(), opt, other.params)
			var injected *chaos.InjectedError
			if fails := errors.As(err, &injected); fails != (other.b.Name() == tc.b.Name()) {
				t.Errorf("site %s armed: %s returned %v", sites[tc.b.Name()], other.b.Name(), err)
			}
		}
		plan.Disable()
	}
}
