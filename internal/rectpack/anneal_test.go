package rectpack

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/obs"
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
	cores, _, _, err := buildCores(opt, params)
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

// TestAcceptLimit: over seeded (curCost, temp, r), with temp from 1 to
// 1e15 and r near 0, near 1 and anywhere between, the exact Metropolis
// test rejects each of the 1,000 costs above the limit, and the limit lies
// at most the margin and 2 above curCost - temp·ln r. r = 0, a draw that
// Float64 would redraw and a sum that overflows int64 give no limit.
func TestAcceptLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := range 3000 {
		curCost := rng.Int63n(1 << 40)
		temp := math.Pow(10, 15*rng.Float64())
		var v int64
		switch i % 3 {
		case 0: // r near 0
			v = 1 + rng.Int63n(1<<20)
		case 1: // r near 1, below the values Float64 redraws
			v = 1<<63 - 1025 - rng.Int63n(1<<40)
		default:
			v = 1 + rng.Int63n(math.MaxInt64)
		}
		r := float64(v) / (1 << 63)
		limit := acceptLimit(curCost, temp, v)
		if limit == math.MaxInt64 {
			t.Fatalf("curCost %d temp %g r %g: no limit", curCost, temp, r)
		}
		for c := limit + 1; c <= limit+1000; c++ {
			if r < math.Exp(-float64(c-curCost)/temp) {
				t.Fatalf("curCost %d temp %g r %g: limit %d, yet cost %d is accepted", curCost, temp, r, limit, c)
			}
		}
		if d := -temp * math.Log(r); float64(limit-curCost) > d+1e-9*(d+temp)+2 {
			t.Fatalf("curCost %d temp %g r %g: limit %d lies more than the margin above %g", curCost, temp, r, limit, float64(curCost)+d)
		}
	}
	for _, tc := range []struct {
		name    string
		curCost int64
		temp    float64
		v       int64
	}{
		{"r=0", 1000, 50, 0},
		{"Float64 redraws", 1000, 50, math.MaxInt64},
		{"sum overflows", math.MaxInt64 - 10, 1e6, 1 << 62},
		{"d overflows", 0, 1e18, 1},
	} {
		if got := acceptLimit(tc.curCost, tc.temp, tc.v); got != math.MaxInt64 {
			t.Errorf("%s: limit %d, want none (math.MaxInt64)", tc.name, got)
		}
	}
}

// TestPeekSourceKeepsTheStream: a rand.Rand over a peekSource, peeked at
// seeded points, returns the same Intn, Int63n, Int63 and Float64 values as
// one over the plain source, and a peek returns the next Int63.
func TestPeekSourceKeepsTheStream(t *testing.T) {
	for _, seed := range []int64{1, 7, 23, sched.DefaultSeed} {
		src := &peekSource{Source: rand.NewSource(seed)}
		got, want := rand.New(src), rand.New(rand.NewSource(seed))
		ctl := rand.New(rand.NewSource(seed + 1))
		for i := range 20000 {
			peeked := ctl.Intn(3) == 0
			var p int64
			if peeked {
				if p = src.peek(); src.peek() != p {
					t.Fatalf("seed %d draw %d: a second peek differs", seed, i)
				}
			}
			var g, w any
			switch ctl.Intn(5) {
			case 0:
				g, w = got.Intn(100), want.Intn(100)
			case 1:
				g, w = got.Intn(37), want.Intn(37)
			case 2:
				n := 1 + ctl.Int63n(1<<50)
				g, w = got.Int63n(n), want.Int63n(n)
			case 3:
				g, w = got.Float64(), want.Float64()
			default:
				x := got.Int63()
				if peeked && x != p {
					t.Fatalf("seed %d draw %d: peeked %d, Int63 returned %d", seed, i, p, x)
				}
				g, w = x, want.Int63()
			}
			if g != w {
				t.Fatalf("seed %d draw %d: %v, plain source %v", seed, i, g, w)
			}
		}
	}
}

// tracedAnneal runs the anneal backend under a fresh trace and returns its
// schedule and the attributes of its anneal/search span.
func tracedAnneal(t *testing.T, opt *sched.Optimizer, params sched.Params) (*sched.Schedule, map[string]any) {
	t.Helper()
	tracer := obs.NewTracer(1)
	sch, traceID, err := func() (*sched.Schedule, string, error) {
		ctx, root := tracer.StartTrace(context.Background(), "test")
		defer root.End()
		sch, err := NewAnneal().Schedule(ctx, opt, params)
		return sch, root.TraceID(), err
	}()
	if err != nil {
		t.Fatal(err)
	}
	td, ok := tracer.Get(traceID)
	if !ok || len(td.Root.Children) != 1 || td.Root.Children[0].Name != "anneal/search" {
		t.Fatalf("trace %+v: want one anneal/search child", td.Root)
	}
	return sch, td.Root.Children[0].Attrs
}

// TestAnnealSpanCountsCuts: a traced anneal call on unbudgeted d695 reports
// on its anneal/search span how many decodes the limit cut and how many
// moves it answered without a decode, with same + decodes = iters and
// cut <= decodes, and its schedule's bytes are the untraced call's, so
// the counts live only in the trace.
func TestAnnealSpanCountsCuts(t *testing.T) {
	opt := optimizer(t, "d695")
	params := sched.Params{TAMWidth: 32}
	traced, attrs := tracedAnneal(t, opt, params)
	iters, _ := attrs["iters"].(int)
	decodes, _ := attrs["decodes"].(int)
	cut, cutOK := attrs["cut"].(int)
	same, sameOK := attrs["same"].(int)
	if !cutOK || !sameOK || cut <= 0 || same <= 0 || same+decodes != iters || cut > decodes {
		t.Fatalf("anneal/search attrs %v: want 0 < cut <= decodes, 0 < same and same + decodes = iters", attrs)
	}
	plain, err := NewAnneal().Schedule(context.Background(), opt, params)
	if err != nil {
		t.Fatal(err)
	}
	var tb, pb bytes.Buffer
	if err := schedio.Save(&tb, traced); err != nil {
		t.Fatal(err)
	}
	if err := schedio.Save(&pb, plain); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cut", "same", "decodes", "iters"} {
		if bytes.Contains(tb.Bytes(), []byte(`"`+name+`"`)) {
			t.Fatalf("the traced schedule's document carries the count %q", name)
		}
	}
	if !bytes.Equal(tb.Bytes(), pb.Bytes()) {
		t.Fatal("the traced schedule's document differs from the untraced one")
	}
}

// TestAnnealSpanCountsWork: a traced anneal call on d695 at W=32 with one
// worker records the same work on its anneal/search span on every repeat:
// its full move budget (d695 stays above LB(W)), the moves it decoded and
// answered, its cut decodes and its improvements. An untraced call
// returns the same schedule. A skip test that answers fewer moves, or a
// stop that fires early or late, would move these numbers.
func TestAnnealSpanCountsWork(t *testing.T) {
	opt := optimizer(t, "d695")
	params := sched.Params{TAMWidth: 32, Workers: 1}
	want, err := NewAnneal().Schedule(context.Background(), opt, params)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]int{"iters": 2400, "decodes": 1693, "same": 707, "cut": 1405, "improved": 5}
	for range 5 {
		got, attrs := tracedAnneal(t, opt, params)
		if !reflect.DeepEqual(got, want) {
			t.Fatal("the traced schedule differs from the untraced one")
		}
		for name, n := range pinned {
			if v, _ := attrs[name].(int); v != n {
				t.Errorf("anneal/search %s = %v, want %d", name, attrs[name], n)
			}
		}
	}
}

// TestAnnealStopsAtFloor: given as its floor the best cost an unfloored
// run reaches, anneal returns the unfloored run's improvement chain and
// stops at the move that reached that cost, before its budget runs out.
// A floor of 0, which no makespan reaches, leaves the whole budget.
func TestAnnealStopsAtFloor(t *testing.T) {
	opt := optimizer(t, "d695")
	params := sched.Params{TAMWidth: 32}.Defaults()
	cores, _, chk, err := buildCores(opt, params)
	if err != nil {
		t.Fatal(err)
	}
	dec := newDecoder(cores, chk, params.TAMWidth)
	start := seeds(cores, params.TAMWidth, modeAnneal)[0]
	res, err := dec.decode(start, math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	run := func(floor int64) ([]*genome, int) {
		tracer := obs.NewTracer(1)
		chain, traceID, err := func() ([]*genome, string, error) {
			ctx, sp := tracer.StartTrace(context.Background(), "test")
			defer sp.End()
			chain, err := anneal(ctx, sp, dec, params, start, res.makespan, floor)
			return chain, sp.TraceID(), err
		}()
		if err != nil {
			t.Fatal(err)
		}
		td, _ := tracer.Get(traceID)
		iters, _ := td.Root.Attrs["iters"].(int)
		return chain, iters
	}
	full, fullIters := run(0)
	if fullIters != iterBudget(len(cores)) || len(full) < 2 {
		t.Fatalf("unfloored run: %d moves and %d improvements, want the budget %d and at least one", fullIters, len(full)-1, iterBudget(len(cores)))
	}
	tip, err := dec.decode(full[len(full)-1], math.MaxInt64)
	if err != nil {
		t.Fatal(err)
	}
	floored, iters := run(tip.makespan)
	if !reflect.DeepEqual(floored, full) {
		t.Fatalf("floored at %d: chain of %d genomes, unfloored %d", tip.makespan, len(floored), len(full))
	}
	t.Logf("floored at %d: %d of %d moves", tip.makespan, iters, fullIters)
	if iters >= fullIters {
		t.Fatalf("floored at %d: %d moves, want fewer than %d", tip.makespan, iters, fullIters)
	}
}
