package sched

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/lb"
	"repro/internal/soc"
)

func mustRun(t *testing.T, s *soc.SOC, p Params) *Schedule {
	t.Helper()
	sch, err := Run(s, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s, sch); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return sch
}

func smallSOC() *soc.SOC {
	return &soc.SOC{
		Name: "small",
		Cores: []*soc.Core{
			{ID: 1, Name: "a", Inputs: 8, Outputs: 8, ScanChains: []int{40, 40, 36}, Test: soc.Test{Patterns: 60, BISTEngine: -1}},
			{ID: 2, Name: "b", Inputs: 6, Outputs: 4, ScanChains: []int{30, 30}, Test: soc.Test{Patterns: 40, BISTEngine: -1}},
			{ID: 3, Name: "c", Inputs: 20, Outputs: 10, Test: soc.Test{Patterns: 50, BISTEngine: -1}},
			{ID: 4, Name: "d", Inputs: 4, Outputs: 4, ScanChains: []int{25}, Test: soc.Test{Patterns: 30, BISTEngine: -1}},
		},
	}
}

func TestRunParamErrors(t *testing.T) {
	s := smallSOC()
	if _, err := Run(s, Params{TAMWidth: 0}); err == nil {
		t.Error("TAMWidth 0 accepted")
	}
	if _, err := New(s, -1); err == nil {
		t.Error("negative max width accepted")
	}
	if _, err := New(s, 1<<16); err == nil {
		t.Error("max width 65536 accepted; grid fingerprints hold 16-bit widths")
	}
	o, err := New(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Run(Params{TAMWidth: 8, MaxWidth: 32}); err == nil {
		t.Error("params.MaxWidth above optimizer cap accepted")
	}
}

func TestScheduleInvariantsAcrossWidths(t *testing.T) {
	s := smallSOC()
	for w := 1; w <= 24; w++ {
		sch := mustRun(t, s, Params{TAMWidth: w, Percent: 5, Delta: 1})
		bound, err := lb.Compute(s, w, DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		if sch.Makespan < bound.Value() {
			t.Fatalf("W=%d: makespan %d below lower bound %d", w, sch.Makespan, bound.Value())
		}
		// Every core scheduled exactly once, in one piece (non-preemptive).
		for _, c := range s.Cores {
			a := sch.Assignments[c.ID]
			if len(a.Pieces) != 1 {
				t.Fatalf("W=%d: non-preemptive core %d has %d pieces", w, c.ID, len(a.Pieces))
			}
			if a.Preemptions != 0 {
				t.Fatalf("W=%d: non-preemptive core %d preempted", w, c.ID)
			}
			if a.Width < 1 || a.Width > w {
				t.Fatalf("W=%d: core %d width %d out of range", w, c.ID, a.Width)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	s := bench.D695()
	a := mustRun(t, s, Params{TAMWidth: 32, Percent: 7, Delta: 2})
	b := mustRun(t, s, Params{TAMWidth: 32, Percent: 7, Delta: 2})
	if a.Makespan != b.Makespan {
		t.Fatalf("nondeterministic makespan: %d vs %d", a.Makespan, b.Makespan)
	}
	for id, aa := range a.Assignments {
		bb := b.Assignments[id]
		if aa.Width != bb.Width || aa.Start() != bb.Start() || aa.End() != bb.End() {
			t.Fatalf("nondeterministic assignment for core %d", id)
		}
	}
}

func TestPrecedenceRespected(t *testing.T) {
	s := smallSOC()
	s.Precedences = []soc.Precedence{{Before: 1, After: 2}, {Before: 2, After: 3}}
	sch := mustRun(t, s, Params{TAMWidth: 12, Percent: 5, Delta: 1})
	a1, a2, a3 := sch.Assignments[1], sch.Assignments[2], sch.Assignments[3]
	if a2.Start() < a1.End() {
		t.Fatalf("core 2 starts %d before core 1 ends %d", a2.Start(), a1.End())
	}
	if a3.Start() < a2.End() {
		t.Fatalf("core 3 starts %d before core 2 ends %d", a3.Start(), a2.End())
	}
}

func TestConcurrencyRespected(t *testing.T) {
	s := smallSOC()
	s.Concurrencies = []soc.Concurrency{{A: 1, B: 2}}
	sch := mustRun(t, s, Params{TAMWidth: 24, Percent: 10, Delta: 2})
	a1, a2 := sch.Assignments[1], sch.Assignments[2]
	if a1.Start() < a2.End() && a2.Start() < a1.End() {
		t.Fatalf("concurrency-constrained cores overlap: [%d,%d) vs [%d,%d)",
			a1.Start(), a1.End(), a2.Start(), a2.End())
	}
}

func TestHierarchyExclusion(t *testing.T) {
	s := smallSOC()
	s.Cores[1].Parent = 1 // core 2 embedded in core 1
	sch := mustRun(t, s, Params{TAMWidth: 24, Percent: 10, Delta: 2})
	a1, a2 := sch.Assignments[1], sch.Assignments[2]
	if a1.Start() < a2.End() && a2.Start() < a1.End() {
		t.Fatal("parent and child tests overlap")
	}
	// Ablation switch allows the overlap check to be skipped (schedule may
	// or may not overlap them, but it must verify under the same flag).
	sch2, err := Run(s, Params{TAMWidth: 24, Percent: 10, Delta: 2, IgnoreHierarchy: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s, sch2); err != nil {
		t.Fatal(err)
	}
}

func TestBISTEngineExclusion(t *testing.T) {
	s := smallSOC()
	s.Cores[0].Test.Kind = soc.BISTTest
	s.Cores[0].Test.BISTEngine = 0
	s.Cores[3].Test.Kind = soc.BISTTest
	s.Cores[3].Test.BISTEngine = 0
	sch := mustRun(t, s, Params{TAMWidth: 24, Percent: 10, Delta: 2})
	a, b := sch.Assignments[1], sch.Assignments[4]
	if a.Start() < b.End() && b.Start() < a.End() {
		t.Fatal("BIST-engine-sharing cores overlap")
	}
}

func TestPowerBudgetRespected(t *testing.T) {
	s := smallSOC()
	budget := DefaultPowerBudget(s, 110)
	sch := mustRun(t, s, Params{TAMWidth: 24, Percent: 10, Delta: 2, PowerMax: budget})
	// Verify() already sweeps power; also check the budget really binds
	// something by comparing against the unconstrained run.
	free := mustRun(t, s, Params{TAMWidth: 24, Percent: 10, Delta: 2})
	if sch.Makespan < free.Makespan {
		t.Fatalf("power-constrained %d beats unconstrained %d with same params", sch.Makespan, free.Makespan)
	}
}

// TestNonPositiveTestTimeFailsTheRun: a core whose width-1 test time
// wraps int64 negative (5e15 patterns over two 1,000-bit chains) fails
// every run that places it, with the core and its width named, so a sweep
// never picks a layout with an empty or inverted span as its winner.
func TestNonPositiveTestTimeFailsTheRun(t *testing.T) {
	s := smallSOC()
	s.Cores[0].ScanChains = []int{1000, 1000}
	s.Cores[0].Test.Patterns = 5e15
	for name, run := range map[string]func() (*Schedule, error){
		"run":   func() (*Schedule, error) { return Run(s, Params{TAMWidth: 8}) },
		"sweep": func() (*Schedule, error) { return SweepBest(s, Params{TAMWidth: 8}, detPercents, detDeltas) },
	} {
		sch, err := run()
		if sch != nil || err == nil || !strings.Contains(err.Error(), "sched: core 1: non-positive test time") {
			t.Fatalf("%s: got (%v, %v), want core 1's non-positive test time error", name, sch, err)
		}
	}
}

func TestPowerInfeasibleReported(t *testing.T) {
	s := smallSOC()
	_, err := Run(s, Params{TAMWidth: 24, PowerMax: 1})
	if err == nil || !strings.Contains(err.Error(), "no schedule exists") {
		t.Fatalf("infeasible power budget: %v", err)
	}
}

func TestPreemptionBudgetRespected(t *testing.T) {
	s := bench.D695()
	mp, err := LargerCorePreemptions(s, DefaultMaxWidth, 2)
	if err != nil {
		t.Fatal(err)
	}
	budget := DefaultPowerBudget(s, 110)
	for _, w := range []int{16, 32, 48, 64} {
		sch := mustRun(t, s, Params{TAMWidth: w, Percent: 6, Delta: 1, MaxPreemptions: mp, PowerMax: budget})
		for id, a := range sch.Assignments {
			if a.Preemptions > mp[id] {
				t.Fatalf("W=%d: core %d preempted %d times, budget %d", w, id, a.Preemptions, mp[id])
			}
			if mp[id] == 0 && len(a.Pieces) != 1 {
				t.Fatalf("W=%d: non-preemptable core %d split into %d pieces", w, id, len(a.Pieces))
			}
		}
	}
}

func TestPreemptionPenaltyAccounting(t *testing.T) {
	// Force preemption: two cores sharing one wire with a power budget that
	// admits only one at a time, plus a long third test, makes the
	// scheduler juggle. Rather than engineering exact preemptions, run the
	// power-constrained benchmarks and check accounting wherever
	// preemptions occurred.
	s := bench.P22810Like()
	mp, err := LargerCorePreemptions(s, DefaultMaxWidth, 2)
	if err != nil {
		t.Fatal(err)
	}
	budget := DefaultPowerBudget(s, 110)
	total := 0
	for _, w := range []int{32, 48, 64} {
		sch := mustRun(t, s, Params{TAMWidth: w, Percent: 8, Delta: 1, MaxPreemptions: mp, PowerMax: budget})
		for _, a := range sch.Assignments {
			total += a.Preemptions
			if a.Preemptions > 0 {
				if a.PenaltyCycles != int64(a.Preemptions)*int64(a.ScanIn+a.ScanOut) {
					t.Fatalf("core %d penalty %d, want %d·(%d+%d)",
						a.CoreID, a.PenaltyCycles, a.Preemptions, a.ScanIn, a.ScanOut)
				}
			}
		}
	}
	t.Logf("observed %d preemptions across power-constrained runs", total)
}

func TestWidthsArePareto(t *testing.T) {
	s := bench.D695()
	o, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := o.Run(Params{TAMWidth: 32, Percent: 5, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	for id, a := range sch.Assignments {
		ps, err := o.ParetoSet(id).Capped(32)
		if err != nil {
			t.Fatal(err)
		}
		snap, ok := ps.SnapDown(a.Width)
		if !ok || snap != a.Width {
			t.Errorf("core %d assigned non-Pareto width %d (snap %d)", id, a.Width, snap)
		}
	}
}

func TestSweepBestPicksMinimum(t *testing.T) {
	s := smallSOC()
	best, err := SweepBest(s, Params{TAMWidth: 16}, []int{1, 5, 10}, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []int{1, 5, 10} {
		for _, d := range []int{0, 2} {
			sch := mustRun(t, s, Params{TAMWidth: 16, Percent: a, Delta: d})
			if sch.Makespan < best.Makespan {
				t.Fatalf("SweepBest %d beaten by alpha=%d delta=%d: %d", best.Makespan, a, d, sch.Makespan)
			}
		}
	}
}

// TestSweepMakespanMatchesSweepBest: SweepMakespan answers the makespan of
// SweepBestContext's schedule without wiring it, and fails where the sweep
// does.
func TestSweepMakespanMatchesSweepBest(t *testing.T) {
	opt, err := New(bench.Demo(), DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, w := range []int{4, 9, 16, 33} {
		p := Params{TAMWidth: w, Workers: 1}
		sch, err := opt.SweepBestContext(ctx, p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := opt.SweepMakespan(ctx, p, nil, nil); err != nil || got != sch.Makespan {
			t.Errorf("W=%d: SweepMakespan = %d, %v; SweepBestContext's schedule ends at %d", w, got, err, sch.Makespan)
		}
	}
	if _, err := opt.SweepMakespan(ctx, Params{}, nil, nil); err == nil {
		t.Error("SweepMakespan accepted TAM width 0")
	}
}

func TestInsertSlackAndWideningToggles(t *testing.T) {
	s := bench.D695()
	for _, w := range []int{16, 48} {
		full, err := SweepBest(s, Params{TAMWidth: w}, []int{5, 10}, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		noIns, err := SweepBest(s, Params{TAMWidth: w, InsertSlack: -1}, []int{5, 10}, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		noWid, err := SweepBest(s, Params{TAMWidth: w, DisableWidening: true}, []int{5, 10}, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(s, noIns); err != nil {
			t.Fatal(err)
		}
		if err := Verify(s, noWid); err != nil {
			t.Fatal(err)
		}
		t.Logf("W=%d full=%d noInsert=%d noWiden=%d", w, full.Makespan, noIns.Makespan, noWid.Makespan)
	}
}

// TestHugeSlackAndPercentSaturate: an insert slack or an α past every
// width or time the SOC has lets every candidate qualify however large it
// is, and must not wrap: slacks W, 1<<20 and math.MaxInt give one
// schedule, and so do percents 1<<40 and math.MaxInt, and percents -1 and
// math.MinInt+1.
func TestHugeSlackAndPercentSaturate(t *testing.T) {
	for _, s := range bench.All() {
		opt, err := New(s, DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{16, 32, 48} {
			for _, knob := range []struct {
				name string
				set  func(*Params, int)
				vals []int
			}{
				{"insertSlack", func(p *Params, v int) { p.InsertSlack = v }, []int{w, 1 << 20, math.MaxInt}},
				{"percent", func(p *Params, v int) { p.Percent = v }, []int{1 << 40, math.MaxInt}},
				{"percent", func(p *Params, v int) { p.Percent = v }, []int{-1, math.MinInt + 1}},
			} {
				var first Schedule
				for i, v := range knob.vals {
					p := Params{TAMWidth: w, Percent: 5}
					knob.set(&p, v)
					sch, err := opt.Run(p)
					if err != nil {
						t.Fatal(err)
					}
					got := *sch
					got.Params = Params{} // the echo is all that may differ
					if i == 0 {
						first = got
					} else if !reflect.DeepEqual(got, first) {
						t.Errorf("%s W=%d: %s %d gives makespan %d, %s %d gave %d",
							s.Name, w, knob.name, v, got.Makespan, knob.name, knob.vals[0], first.Makespan)
					}
				}
			}
		}
	}
}

func TestSingleCoreUsesBestWidth(t *testing.T) {
	s := &soc.SOC{
		Name: "solo",
		Cores: []*soc.Core{
			{ID: 1, Name: "only", Inputs: 4, Outputs: 4, ScanChains: []int{50, 50, 50, 50}, Test: soc.Test{Patterns: 20, BISTEngine: -1}},
		},
	}
	sch := mustRun(t, s, Params{TAMWidth: 16, Percent: 1, Delta: 4})
	o, _ := New(s, 16)
	ps := o.ParetoSet(1)
	if sch.Makespan != ps.MinTime() {
		t.Fatalf("single-core makespan %d, want core minimum %d", sch.Makespan, ps.MinTime())
	}
}

func TestEventsCounted(t *testing.T) {
	sch := mustRun(t, smallSOC(), Params{TAMWidth: 8, Percent: 5, Delta: 1})
	if sch.Events < 1 {
		t.Fatalf("Events = %d", sch.Events)
	}
}

func TestLargerCorePreemptions(t *testing.T) {
	s := bench.D695()
	mp, err := LargerCorePreemptions(s, DefaultMaxWidth, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(mp) == 0 || len(mp) == len(s.Cores) {
		t.Fatalf("policy covers %d of %d cores; want a strict subset at/above the median", len(mp), len(s.Cores))
	}
	for id, n := range mp {
		if n != 2 {
			t.Fatalf("core %d budget %d, want 2", id, n)
		}
	}
	if _, err := LargerCorePreemptions(s, 0, 2); err == nil {
		t.Fatal("max width 0 accepted")
	}
}

func TestDefaultPowerBudget(t *testing.T) {
	s := smallSOC()
	maxP := 0
	for _, c := range s.Cores {
		if p := c.TestPower(); p > maxP {
			maxP = p
		}
	}
	if got := DefaultPowerBudget(s, 100); got != maxP {
		t.Fatalf("budget(100%%) = %d, want %d", got, maxP)
	}
	if got := DefaultPowerBudget(s, 150); got < maxP*3/2 {
		t.Fatalf("budget(150%%) = %d, want >= %d", got, maxP*3/2)
	}
}

func TestScheduleAccessors(t *testing.T) {
	sch := mustRun(t, smallSOC(), Params{TAMWidth: 8, Percent: 5, Delta: 1})
	if sch.DataVolume() != int64(sch.TAMWidth)*sch.Makespan {
		t.Fatal("DataVolume != W·T")
	}
	if sch.IdleArea() < 0 {
		t.Fatalf("IdleArea = %d", sch.IdleArea())
	}
	if u := sch.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("Utilization = %v", u)
	}
	// Exact areas from the pieces: on W=4, two wires over [0,10), two over
	// [0,5) and one over [5,8) cover 33 of the 40 wire-cycles.
	opt, err := New(smallSOC(), 8)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := opt.Assemble(Params{TAMWidth: 4}, []CoreLayout{
		{ID: 1, Width: 2, Spans: []Span{{0, 10}}},
		{ID: 2, Width: 2, Spans: []Span{{0, 5}}},
		{ID: 3, Width: 1, Spans: []Span{{5, 8}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc.IdleArea() != 40-33 || acc.Utilization() != 33.0/40 {
		t.Fatalf("IdleArea = %d, Utilization = %v, want 7 and 0.825", acc.IdleArea(), acc.Utilization())
	}
}

// Property: random SOCs schedule successfully at random widths and all
// invariants hold (Verify re-derives packing, timing, constraints).
func TestRandomSOCProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		s := &soc.SOC{Name: "rand"}
		for id := 1; id <= n; id++ {
			c := &soc.Core{
				ID: id, Name: "c", Inputs: 1 + rng.Intn(30), Outputs: rng.Intn(30),
				Test: soc.Test{Patterns: 1 + rng.Intn(80), BISTEngine: -1},
			}
			for j := rng.Intn(5); j > 0; j-- {
				c.ScanChains = append(c.ScanChains, 1+rng.Intn(60))
			}
			if rng.Intn(4) == 0 {
				c.Test.Kind = soc.BISTTest
				c.Test.BISTEngine = rng.Intn(2)
			}
			s.Cores = append(s.Cores, c)
		}
		// Random DAG edges (only forward) and one concurrency pair.
		for k := rng.Intn(3); k > 0; k-- {
			a, b := 1+rng.Intn(n), 1+rng.Intn(n)
			if a < b {
				s.Precedences = append(s.Precedences, soc.Precedence{Before: a, After: b})
			}
		}
		if n >= 2 && rng.Intn(2) == 0 {
			s.Concurrencies = append(s.Concurrencies, soc.Concurrency{A: 1, B: 2})
		}
		w := 1 + rng.Intn(40)
		mp := map[int]int{1 + rng.Intn(n): rng.Intn(3)}
		sch, err := Run(s, Params{
			TAMWidth:       w,
			Percent:        rng.Intn(15),
			Delta:          rng.Intn(5),
			MaxPreemptions: mp,
		})
		if err != nil {
			t.Logf("seed %d: run: %v", seed, err)
			return false
		}
		if err := Verify(s, sch); err != nil {
			t.Logf("seed %d: verify: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: the makespan never beats the lower bound, across random widths
// on the real benchmark.
func TestLowerBoundProperty(t *testing.T) {
	s := bench.D695()
	o, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	f := func(width uint8, pct, dlt uint8) bool {
		w := int(width)%63 + 2
		sch, err := o.Run(Params{TAMWidth: w, Percent: int(pct) % 20, Delta: int(dlt) % 5})
		if err != nil {
			return false
		}
		bound, err := lb.Compute(s, w, DefaultMaxWidth)
		if err != nil {
			return false
		}
		return sch.Makespan >= bound.Value()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
