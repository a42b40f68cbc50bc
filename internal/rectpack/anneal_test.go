package rectpack

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/schedio"
)

func TestAnnealRegistered(t *testing.T) {
	b, err := sched.BackendByName(AnnealName)
	if err != nil {
		t.Fatalf("anneal not registered: %v", err)
	}
	if b.Name() != AnnealName {
		t.Fatalf("registered name %q, want %q", b.Name(), AnnealName)
	}
}

func TestAnnealScheduleVerifiesAcrossBenchmarks(t *testing.T) {
	for _, name := range []string{"demo8", "d695"} {
		opt := optimizer(t, name)
		for _, w := range []int{8, 16, 32} {
			sch, err := NewAnneal().Schedule(context.Background(), opt, sched.Params{TAMWidth: w})
			if err != nil {
				t.Fatalf("%s W=%d: %v", name, w, err)
			}
			if err := opt.Verify(sch); err != nil {
				t.Errorf("%s W=%d: verify: %v", name, w, err)
			}
			if err := sched.CheckInvariants(opt.SOC(), sch); err != nil {
				t.Errorf("%s W=%d: invariants: %v", name, w, err)
			}
		}
	}
}

func TestAnnealScheduleHonorsPowerBudget(t *testing.T) {
	opt := optimizer(t, "demo8")
	budget := sched.DefaultPowerBudget(opt.SOC(), 110)
	sch, err := NewAnneal().Schedule(context.Background(), opt, sched.Params{TAMWidth: 16, PowerMax: budget})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.CheckInvariants(opt.SOC(), sch); err != nil {
		t.Fatalf("power-constrained schedule: %v", err)
	}
}

// TestAnnealSchedulePreemptive: under a preemption budget the split genes are
// live; whatever the search finds must stay inside the budget and pass
// the split-accounting invariants.
func TestAnnealSchedulePreemptive(t *testing.T) {
	opt := optimizer(t, "d695")
	mp, err := opt.LargerCorePreemptions(2)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := NewAnneal().Schedule(context.Background(), opt, sched.Params{TAMWidth: 24, MaxPreemptions: mp})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.CheckInvariants(opt.SOC(), sch); err != nil {
		t.Fatalf("preemptive schedule: %v", err)
	}
	for id, a := range sch.Assignments {
		if a.Preemptions > mp[id] {
			t.Errorf("core %d: %d preemptions over budget %d", id, a.Preemptions, mp[id])
		}
	}
}

// TestAnnealScheduleSeedDeterministic: one seed is one byte stream; a second
// seed is an independent but equally reproducible stream.
func TestAnnealScheduleSeedDeterministic(t *testing.T) {
	runBytes := func(seed int64) []byte {
		opt := optimizer(t, "d695")
		sch, err := NewAnneal().Schedule(context.Background(), opt, sched.Params{TAMWidth: 32, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := schedio.Save(&buf, sch); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(runBytes(0), runBytes(0)) {
		t.Fatal("zero seed not reproducible")
	}
	if !bytes.Equal(runBytes(7), runBytes(7)) {
		t.Fatal("seed 7 not reproducible")
	}
}

// TestAnnealNeverWorseThanRectpack: anneal's seeds begin with rectpack's
// whole portfolio, decoded by the same engine, so the best-ever solution
// can never lose to rectpack head-to-head. W=68 lies above the per-core
// MaxWidth cap (64), where both share the TAMWidth/den cap ladder.
func TestAnnealNeverWorseThanRectpack(t *testing.T) {
	for _, w := range []int{16, 32, 68} {
		opt := optimizer(t, "d695")
		a, err := NewAnneal().Schedule(context.Background(), opt, sched.Params{TAMWidth: w})
		if err != nil {
			t.Fatal(err)
		}
		r, err := New().Schedule(context.Background(), opt, sched.Params{TAMWidth: w})
		if err != nil {
			t.Fatal(err)
		}
		if a.Makespan > r.Makespan {
			t.Errorf("W=%d: anneal %d worse than rectpack %d", w, a.Makespan, r.Makespan)
		}
	}
}

func TestAnnealScheduleErrors(t *testing.T) {
	opt := optimizer(t, "demo8")
	if _, err := NewAnneal().Schedule(context.Background(), opt, sched.Params{TAMWidth: 0}); err == nil {
		t.Error("TAMWidth 0 accepted")
	}
	if _, err := NewAnneal().Schedule(context.Background(), opt, sched.Params{TAMWidth: 16, MaxWidth: 999}); err == nil {
		t.Error("MaxWidth above the optimizer cap accepted")
	}
}

func TestAnnealScheduleCancelled(t *testing.T) {
	opt := optimizer(t, "demo8")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewAnneal().Schedule(ctx, opt, sched.Params{TAMWidth: 16}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled anneal returned %v, want context.Canceled", err)
	}
}

func TestIterBudget(t *testing.T) {
	if got := iterBudget(0); got != 3000 {
		t.Errorf("iterBudget(0) = %d, want clamped to 3000", got)
	}
	if got := iterBudget(1); got != 3000 {
		t.Errorf("iterBudget(1) = %d, want clamped to 3000", got)
	}
	if got := iterBudget(1000); got != 400 {
		t.Errorf("iterBudget(1000) = %d, want clamped to 400", got)
	}
	if got := iterBudget(24); got != 1000 {
		t.Errorf("iterBudget(24) = %d, want 1000", got)
	}
}

// TestNeighborUndo: every neighbor move must be perfectly reversible —
// the annealer relies on the undo value to reject moves without
// re-decoding from a fresh genome.
func TestNeighborUndo(t *testing.T) {
	opt := optimizer(t, "d695")
	mp, err := opt.LargerCorePreemptions(2)
	if err != nil {
		t.Fatal(err)
	}
	params := sched.Params{TAMWidth: 24, MaxPreemptions: mp}.Defaults()
	cores, _, err := buildCores(opt, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, budgeted := range [][]int{budgetedCores(cores), nil} {
		rng := rand.New(rand.NewSource(1))
		for _, seed := range seeds(cores, params.TAMWidth, modeAnneal) {
			g, before := seed.clone(), seed.clone()
			for i := 0; i < 50; i++ {
				neighbor(g, cores, params.TAMWidth, budgeted, rng).revert(g)
				if !reflect.DeepEqual(g, before) {
					t.Fatalf("budgets=%t move %d: undo did not restore the genome", budgeted != nil, i)
				}
			}
		}
	}
}
