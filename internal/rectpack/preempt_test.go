package rectpack

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/sched"
	"repro/internal/schedio"
	"repro/internal/soc"
)

func preemptParams(t *testing.T, opt *sched.Optimizer, w, budget int) sched.Params {
	t.Helper()
	mp, err := opt.LargerCorePreemptions(budget)
	if err != nil {
		t.Fatal(err)
	}
	return sched.Params{TAMWidth: w, MaxPreemptions: mp}
}

func TestPreemptRegistered(t *testing.T) {
	b, err := sched.BackendByName(PreemptName)
	if err != nil {
		t.Fatalf("preempt-rectpack not registered: %v", err)
	}
	if b.Name() != PreemptName {
		t.Fatalf("registered name %q, want %q", b.Name(), PreemptName)
	}
}

// TestDeclinesPartition: rectpack and preempt-rectpack split the
// parameter space exactly in two — budgets go to the splitter, their
// absence to the plain packer, and never both.
func TestDeclinesPartition(t *testing.T) {
	opt := optimizer(t, "d695")
	plain := sched.Params{TAMWidth: 32}
	budget := preemptParams(t, opt, 32, 2)

	if reason, declined := New().Declines(budget); !declined {
		t.Error("rectpack accepted a preemption budget")
	} else if reason == "" {
		t.Error("rectpack declined without a reason")
	}
	if _, declined := New().Declines(plain); declined {
		t.Error("rectpack declined a plain run")
	}
	if reason, declined := NewPreempt().Declines(plain); !declined {
		t.Error("preempt-rectpack accepted a run with no budgets")
	} else if reason == "" {
		t.Error("preempt-rectpack declined without a reason")
	}
	if _, declined := NewPreempt().Declines(budget); declined {
		t.Error("preempt-rectpack declined a preemption budget")
	}
	// An all-zero budget map is the same as no budgets.
	if _, declined := NewPreempt().Declines(sched.Params{TAMWidth: 32, MaxPreemptions: map[int]int{1: 0}}); !declined {
		t.Error("preempt-rectpack accepted an all-zero budget map")
	}
}

func TestPreemptScheduleVerifies(t *testing.T) {
	opt := optimizer(t, "d695")
	for _, w := range []int{16, 24, 32} {
		params := preemptParams(t, opt, w, 2)
		sch, err := NewPreempt().Schedule(context.Background(), opt, params)
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		if err := opt.Verify(sch); err != nil {
			t.Errorf("W=%d: verify: %v", w, err)
		}
		if err := sched.CheckInvariants(opt.SOC(), sch); err != nil {
			t.Errorf("W=%d: invariants: %v", w, err)
		}
		for id, a := range sch.Assignments {
			if a.Preemptions > params.MaxPreemptions[id] {
				t.Errorf("W=%d core %d: %d preemptions over budget %d", w, id, a.Preemptions, params.MaxPreemptions[id])
			}
		}
	}
}

// TestPreemptNeverWorseThanRectpack: the splitter races every
// non-preemptive strategy too, so splitting is only ever taken when it
// helps.
func TestPreemptNeverWorseThanRectpack(t *testing.T) {
	opt := optimizer(t, "d695")
	for _, w := range []int{16, 24} {
		params := preemptParams(t, opt, w, 2)
		p, err := NewPreempt().Schedule(context.Background(), opt, params)
		if err != nil {
			t.Fatal(err)
		}
		r, err := New().Schedule(context.Background(), opt, sched.Params{TAMWidth: w})
		if err != nil {
			t.Fatal(err)
		}
		if p.Makespan > r.Makespan {
			t.Errorf("W=%d: preempt-rectpack %d worse than rectpack %d", w, p.Makespan, r.Makespan)
		}
	}
}

// TestPreemptScheduleActuallySplits replays the corpus monster60 regime
// (where the splitter beats classic by ~10%) and checks a split really
// materializes: some core must carry a resumed segment, and the
// preemptive emission path must place it on concrete wires.
func TestPreemptScheduleActuallySplits(t *testing.T) {
	s, opt, mp := monster60(t)
	sch, err := NewPreempt().Schedule(context.Background(), opt, sched.Params{TAMWidth: 64, Workers: 1, MaxPreemptions: mp})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.CheckInvariants(s, sch); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	split := 0
	for _, a := range sch.Assignments {
		if a.Preemptions > 0 {
			split++
			if len(a.Pieces) != a.Preemptions+1 {
				t.Errorf("core %d: %d pieces for %d preemptions", a.CoreID, len(a.Pieces), a.Preemptions)
			}
		}
	}
	if split == 0 {
		t.Fatal("no core was split on the monster60 regime where splitting wins")
	}
}

func TestPreemptScheduleDeterministic(t *testing.T) {
	var outs [2][]byte
	for i := range outs {
		opt := optimizer(t, "d695")
		sch, err := NewPreempt().Schedule(context.Background(), opt, preemptParams(t, opt, 24, 2))
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
		t.Fatal("preempt-rectpack schedules differ across runs")
	}
}

func TestPreemptScheduleHonorsPowerBudget(t *testing.T) {
	opt := optimizer(t, "d695")
	params := preemptParams(t, opt, 16, 2)
	params.PowerMax = sched.DefaultPowerBudget(opt.SOC(), 110)
	sch, err := NewPreempt().Schedule(context.Background(), opt, params)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.CheckInvariants(opt.SOC(), sch); err != nil {
		t.Fatalf("power-constrained preemptive schedule: %v", err)
	}
}

func TestPreemptScheduleErrors(t *testing.T) {
	opt := optimizer(t, "demo8")
	if _, err := NewPreempt().Schedule(context.Background(), opt, sched.Params{TAMWidth: 0}); err == nil {
		t.Error("TAMWidth 0 accepted")
	}
}

func TestPreemptScheduleCancelled(t *testing.T) {
	opt := optimizer(t, "demo8")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	params := preemptParams(t, opt, 16, 1)
	if _, err := NewPreempt().Schedule(ctx, opt, params); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled preempt-rectpack returned %v, want context.Canceled", err)
	}
}

// monster60 builds the corpus monster60 SOC with 4 preemptions for its
// larger cores.
func monster60(t *testing.T) (*soc.SOC, *sched.Optimizer, map[int]int) {
	t.Helper()
	s := bench.Synth(bench.SynthConfig{
		Name: "monster60", Cores: 60, Seed: 114, HierarchyPct: 25,
		PowerValues: true, PowerBudgetPct: 200,
		ExtraPrecedences: 6, ExtraConcurrencies: 6,
	})
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := sched.LargerCorePreemptions(s, sched.DefaultMaxWidth, 4)
	if err != nil {
		t.Fatal(err)
	}
	return s, opt, mp
}

// TestPreemptSeedMakespans pins the decoded makespan of every
// preempt-rectpack seed on monster60 at W=64, where victims are often
// re-admitted at the instant they were suspended. Such a victim merges back
// into its segment without a penalty; the schedule bytes do not show this,
// because no winning seed does it. Every decode must also count exactly
// one preemption per gap between segments.
func TestPreemptSeedMakespans(t *testing.T) {
	_, opt, mp := monster60(t)
	params := sched.Params{TAMWidth: 64, MaxPreemptions: mp}.Defaults()
	cores, _, chk, err := buildCores(opt, params)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{
		1320076, 752750, 736595, 834746, 7031461, 931974, 1056626, 889614, 926953, 6927476,
		931974, 1056626, 889614, 926953, 6927476, 1033441, 3325719, 1671847, 1296526, 6864766,
		691490, 629980, 662201, 661747, 647890, 772150, 631868, 681268, 648082, 1320076,
		705427, 753373, 683294, 762164, 931974, 677610, 569121, 577885, 674780, 1765473,
		636686, 592892, 574964, 598139, 1318478, 547575,
	}
	dec := newDecoder(cores, chk, params.TAMWidth)
	gs := seeds(cores, params.TAMWidth, modePreempt)
	if len(gs) != len(want) {
		t.Fatalf("%d seeds, want %d", len(gs), len(want))
	}
	for i, g := range gs {
		res, err := dec.decode(g, math.MaxInt64)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if res.makespan != want[i] {
			t.Errorf("seed %d: makespan %d, want %d", i, res.makespan, want[i])
		}
		for ci := range res.sim {
			if s := &res.sim[ci]; s.preempts != len(s.segs)-1 {
				t.Errorf("seed %d core %d: %d preemptions for %d segments", i, cores[ci].id, s.preempts, len(s.segs))
			}
		}
	}
}
