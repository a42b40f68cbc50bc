package sched

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/soc"
	"repro/internal/wrapper"
)

// fullGrid expands params and the percent/delta (and, when unset, slack)
// axes into every grid point of a sweep, in sweep order, with Workers
// cleared as SweepBest echoes it.
func fullGrid(params Params, percents, deltas []int) []Params {
	if len(percents) == 0 {
		percents = DefaultPercents()
	}
	if len(deltas) == 0 {
		deltas = DefaultDeltas()
	}
	slacks := []int{params.InsertSlack}
	if params.InsertSlack == 0 {
		slacks = DefaultInsertSlacks()
	}
	var grid []Params
	for _, sl := range slacks {
		for _, a := range percents {
			for _, d := range deltas {
				p := params
				p.Percent, p.Delta, p.InsertSlack, p.Workers = a, d, sl, 0
				grid = append(grid, p)
			}
		}
	}
	return grid
}

// sweepBestRef is the pre-deduplication sweep and the differential-testing
// oracle for SweepBest: a plain sequential Run of every grid point, the
// first point of the smallest makespan winning, or the first error when
// every point fails. No run is cut short.
func (o *Optimizer) sweepBestRef(params Params, percents, deltas []int) (*Schedule, error) {
	var best *Schedule
	var firstErr error
	for _, p := range fullGrid(params, percents, deltas) {
		sch, err := o.Run(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || sch.Makespan < best.Makespan {
			best = sch
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

// synthRegimes are bench.Synth SOCs that each stress one constraint
// regime: a power budget, extra precedences and concurrencies, one BIST
// engine shared by every memory, and hierarchy.
func synthRegimes() []*soc.SOC {
	return []*soc.SOC{
		bench.Synth(bench.SynthConfig{Name: "synth-power", Cores: 24, Seed: 11, PowerValues: true, PowerBudgetPct: 130}),
		bench.Synth(bench.SynthConfig{Name: "synth-constraints", Cores: 24, Seed: 12, ExtraPrecedences: 6, ExtraConcurrencies: 6}),
		bench.Synth(bench.SynthConfig{Name: "synth-bist1", Cores: 24, Seed: 13, BISTEngines: 1}),
		bench.Synth(bench.SynthConfig{Name: "synth-hierarchy", Cores: 24, Seed: 14, HierarchyPct: 40}),
	}
}

// TestSweepBestDedupMatchesFullGrid: SweepBest, which runs the unique
// preferred-width fingerprints on reused runners, skips the runs that
// repeat a smaller slack's, stops the runs that cannot win and wires only
// the winner, returns a schedule identical (field for field, wire for
// wire, Events and the params echo included) to the reference that runs
// and wires every grid point. It covers d695 and demo8, and the
// synthRegimes SOCs with LargerCorePreemptions(3) budgets, sequentially
// and with a worker pool, and d695 at W=32 on the default 15×5×3 grid,
// where the sequential sweep must skip some run, so the skip is checked.
func TestSweepBestDedupMatchesFullGrid(t *testing.T) {
	d695, err := New(bench.D695(), DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		p := Params{TAMWidth: 32, Workers: workers}
		best, n, err := d695.sweep(context.Background(), p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := best.assemble(d695)
		if err != nil {
			t.Fatal(err)
		}
		want, err := d695.sweepBestRef(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("d695 W=32 default grid workers=%d: sweep differs from the full grid", workers)
		}
		if workers == 1 && n.skipped == 0 {
			t.Errorf("d695 W=32 default grid: no run skipped (%+v)", n)
		}
	}

	type input struct {
		s       *soc.SOC
		budgets bool
	}
	var inputs []input
	for _, name := range []string{"d695", "demo8"} {
		s, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{s, false})
	}
	for _, s := range synthRegimes() {
		inputs = append(inputs, input{s, true})
	}
	for _, in := range inputs {
		opt, err := New(in.s, DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		var mp map[int]int
		if in.budgets {
			if mp, err = opt.LargerCorePreemptions(3); err != nil {
				t.Fatal(err)
			}
		}
		for _, w := range []int{16, 32} {
			for _, workers := range []int{1, 4} {
				p := Params{TAMWidth: w, MaxPreemptions: mp, Workers: workers}
				got, err := opt.SweepBest(p, detPercents, detDeltas)
				if err != nil {
					t.Fatalf("%s W=%d workers=%d: %v", in.s.Name, w, workers, err)
				}
				want, err := opt.sweepBestRef(p, detPercents, detDeltas)
				if err != nil {
					t.Fatalf("%s W=%d workers=%d (ref): %v", in.s.Name, w, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s W=%d workers=%d: dedup sweep differs\n got  makespan=%d events=%d params=%+v\n want makespan=%d events=%d params=%+v",
						in.s.Name, w, workers, got.Makespan, got.Events, got.Params, want.Makespan, want.Events, want.Params)
				}
			}
		}
	}
}

// TestSweepBestAllocsIndependentOfReps: a sweep allocates the same for
// any number of distinct runs. Each worker reuses one runner, a run
// allocates nothing, and only the winner is wired, so d695 sweeps of the
// same 225-point grid with 3 to 105 representatives allocate within a few
// objects of each other (95 here), where a run that allocated would add
// dozens per representative.
func TestSweepBestAllocsIndependentOfReps(t *testing.T) {
	opt, err := New(bench.D695(), DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	var base float64
	for i, w := range []int{2, 8, 24, 48} {
		_, sets, err := opt.Setup(Params{TAMWidth: w})
		if err != nil {
			t.Fatal(err)
		}
		reps := len(newGrid(Params{TAMWidth: w}, nil, nil, sets).reps)
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := opt.SweepBest(Params{TAMWidth: w, Workers: 1}, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		if i == 0 {
			base = allocs
		}
		if allocs > base+8 {
			t.Errorf("W=%d: %d representatives allocate %.0f objects per sweep; W=2's sweep allocates %.0f", w, reps, allocs, base)
		}
		t.Logf("W=%d: %d representatives, %.0f allocations per sweep", w, reps, allocs)
	}
}

// TestSweepBestDedupCollapsesGrid sanity-checks that the fingerprinting
// actually collapses the default grid (the perf win exists) while keeping
// representatives in grid order.
func TestSweepBestDedupCollapsesGrid(t *testing.T) {
	s := bench.D695()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	grid := fullGrid(Params{TAMWidth: 32}, nil, nil)
	_, sets, err := opt.Setup(Params{TAMWidth: 32})
	if err != nil {
		t.Fatal(err)
	}
	g := newGrid(Params{TAMWidth: 32}, nil, nil, sets)
	var reps []int
	for s := range g.slacks {
		for _, pt := range g.reps {
			idx, p := g.point(s, pt)
			if !reflect.DeepEqual(p, grid[idx]) {
				t.Fatalf("representative %d is grid point %d with params %+v; the full grid has %+v", len(reps), idx, p, grid[idx])
			}
			reps = append(reps, idx)
		}
	}
	if len(reps) == 0 || len(reps) >= len(grid) {
		t.Fatalf("dedup collapsed %d grid points to %d; expected a strict, non-empty reduction", len(grid), len(reps))
	}
	for i := 1; i < len(reps); i++ {
		if reps[i] <= reps[i-1] {
			t.Fatalf("representatives out of grid order: %v", reps)
		}
	}
	if reps[0] != 0 {
		t.Fatalf("first grid point must be a representative, got %d", reps[0])
	}
	t.Logf("d695 W=32 default grid: %d points -> %d unique runs", len(grid), len(reps))
}

// TestSweepBestDedupEveryPointFails pins the error path: an unsatisfiable
// power budget makes every grid point fail at set-up (d695, demo8), and a
// core whose test time wraps negative makes every run fail (small), so no
// run finishes and none is cut short. The dedup sweep must surface the
// same (lowest-grid-index) error as the full grid, at any worker count.
func TestSweepBestDedupEveryPointFails(t *testing.T) {
	overflow := smallSOC()
	overflow.Cores[0].ScanChains, overflow.Cores[0].Test.Patterns = []int{1000, 1000}, 5e15
	for _, s := range []*soc.SOC{bench.D695(), bench.Demo(), overflow} {
		opt, err := New(s, DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		powerMax := 1
		if s == overflow {
			powerMax = 0
		}
		for _, workers := range []int{1, 4} {
			p := Params{TAMWidth: 32, PowerMax: powerMax, Workers: workers}
			_, gotErr := opt.SweepBest(p, detPercents, detDeltas)
			_, wantErr := opt.sweepBestRef(p, detPercents, detDeltas)
			if gotErr == nil || wantErr == nil {
				t.Fatalf("%s workers=%d: expected both paths to fail, got %v / %v", s.Name, workers, gotErr, wantErr)
			}
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("%s workers=%d: errors differ:\n got  %v\n want %v", s.Name, workers, gotErr, wantErr)
			}
		}
	}
}

// TestParetoTableMatchesDesignWrapper: an Optimizer's Pareto sets give,
// for every core at every width in 1..DefaultMaxWidth, the testing time,
// scan lengths and preemption penalty of DesignWrapper's design, and so
// does every Capped(c) view at every width up to c. Optimizer.Verify,
// which reads those tables, and Verify, which designs every wrapper, both
// accept each SOC's swept schedule.
func TestParetoTableMatchesDesignWrapper(t *testing.T) {
	socs := []*soc.SOC{bench.D695(), bench.P93791Like()}
	for _, profile := range []string{"mixed", "combo", "longchain"} {
		socs = append(socs, bench.Synth(bench.SynthConfig{Cores: 32, Seed: 1, Profile: profile}))
	}
	for _, s := range socs {
		opt, err := New(s, DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range s.Cores {
			full := opt.ParetoSet(c.ID)
			for w := 1; w <= DefaultMaxWidth; w++ {
				d, err := wrapper.DesignWrapper(c, w)
				if err != nil {
					t.Fatal(err)
				}
				for cap := w; cap <= DefaultMaxWidth; cap++ {
					view, err := full.Capped(cap)
					if err != nil {
						t.Fatal(err)
					}
					si, so := view.Scan(w)
					if view.Time(w) != d.TestTime() || si != d.ScanInMax || so != d.ScanOutMax || view.Penalty(w) != d.PreemptionPenalty() {
						t.Fatalf("%s core %d width %d capped at %d: time %d, scan %d/%d, penalty %d; DesignWrapper gives %d, %d/%d, %d",
							s.Name, c.ID, w, cap, view.Time(w), si, so, view.Penalty(w), d.TestTime(), d.ScanInMax, d.ScanOutMax, d.PreemptionPenalty())
					}
				}
			}
		}
		sch, err := opt.SweepBest(Params{TAMWidth: 32, Workers: 1}, detPercents, detDeltas)
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.Verify(sch); err != nil {
			t.Fatalf("%s: Optimizer.Verify: %v", s.Name, err)
		}
		if err := Verify(s, sch); err != nil {
			t.Fatalf("%s: Verify: %v", s.Name, err)
		}
	}
}

// TestOptimizerKeepsNoWrapperChains: an Optimizer retains its Pareto sets
// and their per-width tables, not wrapper designs with their chain lists,
// so a 200-core SOC's optimizer holds at most 8 KiB of heap per core (the
// tables need about 2.1 KiB). Not parallel: HeapAlloc counts every
// goroutine's allocations.
func TestOptimizerKeepsNoWrapperChains(t *testing.T) {
	s := bench.Synth(bench.SynthConfig{Cores: 200, Seed: 1})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(opt)
	perCore := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(len(s.Cores))
	if perCore > 8<<10 {
		t.Fatalf("optimizer retains %d bytes per core, want at most %d", perCore, 8<<10)
	}
	t.Logf("optimizer retains %d bytes per core", perCore)
}
