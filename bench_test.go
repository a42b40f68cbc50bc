package repro_test

// One benchmark per table and figure of the DAC 2002 paper, plus the
// ablations DESIGN.md calls out. Each benchmark regenerates its artifact
// end-to-end (wrapper design, Pareto sets, scheduling, sweeps), so
// `go test -bench=. -benchmem` both measures the framework's runtime —
// the paper's "<5 s on a 333 MHz Ultra 10" claim class — and re-derives
// the numbers recorded in EXPERIMENTS.md.

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/corpus"
	"repro/internal/datavol"
	"repro/internal/experiments"
	"repro/internal/lb"
	"repro/internal/pareto"
	"repro/internal/sched"
	"repro/internal/socfile"
	"repro/internal/tamsim"
	"repro/internal/wrapper"
)

// table1Percents is a mid-size grid: large enough to land near the
// recorded results, small enough for iterating benchmarks.
var table1Percents = []int{1, 5, 10, 20, 40}
var table1Deltas = []int{0, 1, 2}

// BenchmarkTable1 regenerates one Table 1 block (all four regimes at the
// paper's widths) per benchmark SOC.
func BenchmarkTable1D695(b *testing.B)   { benchTable1(b, "d695") }
func BenchmarkTable1P22810(b *testing.B) { benchTable1(b, "p22810like") }
func BenchmarkTable1P34392(b *testing.B) { benchTable1(b, "p34392like") }
func BenchmarkTable1P93791(b *testing.B) { benchTable1(b, "p93791like") }

func benchTable1(b *testing.B, name string) {
	s, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(s, table1Percents, table1Deltas, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// BenchmarkFig1ParetoStaircase regenerates Fig. 1: the testing-time
// staircase and Pareto points of p93791like's engineered Core 6.
func BenchmarkFig1ParetoStaircase(b *testing.B) {
	s := bench.P93791Like()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig1(s, 6, 64)
		if err != nil {
			b.Fatal(err)
		}
		if pts[46].Time != 114317 {
			b.Fatalf("plateau = %d", pts[46].Time)
		}
	}
}

// BenchmarkFig9SweepP22810 regenerates the Fig. 9(a)-(d) sweep for the
// p22810 stand-in (T, D and cost curves share one sweep). A reduced width
// range and grid keep one iteration around a second; socbench runs the
// full-resolution version.
func BenchmarkFig9SweepP22810(b *testing.B) {
	s := bench.P22810Like()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f9, err := experiments.Fig9Sweep(s, 12, 72, []int{1, 10, 30}, []int{0, 1}, 1)
		if err != nil {
			b.Fatal(err)
		}
		if f9.Sweep.MinVolume <= 0 {
			b.Fatal("no volume minimum")
		}
	}
}

// BenchmarkTable2 regenerates a Table 2 block (minima plus γ rows) per
// SOC, from a reduced-resolution sweep.
func BenchmarkTable2D695(b *testing.B)   { benchTable2(b, "d695") }
func BenchmarkTable2P34392(b *testing.B) { benchTable2(b, "p34392like") }

func benchTable2(b *testing.B, name string) {
	s, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f9, err := experiments.Fig9Sweep(s, 12, 64, []int{1, 10, 30}, []int{0, 1}, 1)
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiments.Table2(f9)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAblationDelta regenerates the §6 p34392 bottleneck narrative.
func BenchmarkAblationDelta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationDelta(10, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkAblationBaselines compares flexible packing against the
// fixed-width and shelf architectures on d695.
func BenchmarkAblationBaselines(b *testing.B) {
	s := bench.D695()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Baselines(s, []int{16, 32, 64}, 3, table1Percents, table1Deltas, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkAblationHeuristics measures the idle-insertion / widening
// on-off matrix on d695.
func BenchmarkAblationHeuristics(b *testing.B) {
	s := bench.D695()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationHeuristics(s, []int{32}, table1Percents, table1Deltas, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Component micro-benchmarks: the pieces the paper times implicitly ---

// BenchmarkSingleSchedule measures one scheduler run (the unit the paper's
// "<5 s total CPU time" claim is built from) on the largest SOC.
func BenchmarkSingleScheduleP93791(b *testing.B) {
	s := bench.P93791Like()
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Run(sched.Params{TAMWidth: 48, Percent: 10, Delta: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDesignWrapper measures the BFD wrapper design of the biggest
// d695 core across its useful width range (the uncached path).
func BenchmarkDesignWrapper(b *testing.B) {
	c := bench.D695().Core(5) // s38584
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 1; w <= 64; w++ {
			if _, err := wrapper.DesignWrapper(c, w); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepBestD695 measures one full (α, δ, slack) parameter-grid
// sweep at a fixed TAM width — the unit datavol.Run repeats per width.
// Grid dedup collapses the default 225-point grid to the unique
// preferred-width fingerprints before anything runs.
func BenchmarkSweepBestD695(b *testing.B) {
	s := bench.D695()
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.SweepBest(sched.Params{TAMWidth: 32, Workers: 1}, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScheduleBackend measures one full d695 W=32 run of a named backend
// through the registry dispatch path — the same call ScheduleNamed and the
// service layer make. A non-zero preemptions budget (via
// LargerCorePreemptions) keeps the preemptive backends from declining.
func benchScheduleBackend(b *testing.B, backend string, preemptions int) {
	s := bench.D695()
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	params := sched.Params{TAMWidth: 32, Workers: 1, Backend: backend}
	if preemptions > 0 {
		mp, err := opt.LargerCorePreemptions(preemptions)
		if err != nil {
			b.Fatal(err)
		}
		params.MaxPreemptions = mp
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.ScheduleBackend(ctx, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleD695Rectpack tracks the rectangle bin-packing backend.
func BenchmarkScheduleD695Rectpack(b *testing.B) { benchScheduleBackend(b, "rectpack", 0) }

// BenchmarkScheduleD695PreemptRectpack tracks the splitting packer under a
// two-segment budget on the larger cores (without one it declines).
func BenchmarkScheduleD695PreemptRectpack(b *testing.B) {
	benchScheduleBackend(b, "preempt-rectpack", 2)
}

// BenchmarkScheduleD695Anneal tracks the seeded annealing local search.
func BenchmarkScheduleD695Anneal(b *testing.B) { benchScheduleBackend(b, "anneal", 0) }

// BenchmarkScheduleD695Portfolio tracks the racing meta-backend (which
// runs every other backend, so it bounds the whole registry's cost).
func BenchmarkScheduleD695Portfolio(b *testing.B) { benchScheduleBackend(b, "portfolio", 0) }

// BenchmarkScheduleConstrainedCorpus tracks the Conflict check's refusal
// path, which the BenchmarkScheduleD695* runs never take: d695 carries no
// precedence, power or BIST constraint. Each sub-benchmark runs anneal or
// the grid-swept classic best on one constrained corpus scenario at that
// scenario's own params.
func BenchmarkScheduleConstrainedCorpus(b *testing.B) {
	for _, name := range []string{"mixed24-all-constraints-w32", "monster48-w48"} {
		sc, ok := corpus.ByName(name)
		if !ok {
			b.Fatalf("no corpus scenario %q", name)
		}
		s := sc.Build()
		params, err := sc.ResolveParams(s)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := sched.New(s, sched.DefaultMaxWidth)
		if err != nil {
			b.Fatal(err)
		}
		for _, backend := range []string{"anneal", sched.DefaultBackend} {
			p := params
			p.Backend = backend
			b.Run(name+"/"+backend, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := opt.ScheduleBackend(context.Background(), p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkScheduleColdShapes replays the request shapes of perfbench's
// cold-portfolio workload through the library: every corpus scenario that
// keeps its hierarchy constraints, at its own params and at the quarter
// points of its width window, on one worker. One op is one pass over every
// shape the sub-benchmark's backend accepts; the planners are built before
// the timer starts, as a warm service registry holds them.
func BenchmarkScheduleColdShapes(b *testing.B) {
	type shape struct {
		opt    *sched.Optimizer
		params sched.Params
	}
	var shapes []shape
	for _, sc := range corpus.All() {
		if sc.Params.IgnoreHierarchy {
			continue
		}
		s := sc.Build()
		params, err := sc.ResolveParams(s)
		if err != nil {
			b.Fatal(err)
		}
		opt, err := sched.New(s, sched.DefaultMaxWidth)
		if err != nil {
			b.Fatal(err)
		}
		params.Workers = 1
		n := sc.WidthHi - sc.WidthLo
		for _, w := range []int{sc.WidthLo + n/4, sc.WidthLo + n/2, sc.WidthLo + 3*n/4} {
			params.TAMWidth = w
			shapes = append(shapes, shape{opt, params})
		}
	}
	for _, backend := range []string{"anneal", "portfolio"} {
		be, err := sched.BackendByName(backend)
		if err != nil {
			b.Fatal(err)
		}
		var accepted []shape
		for _, sh := range shapes {
			sh.params.Backend = backend
			if _, declined := sched.BackendDeclines(be, sh.params); !declined {
				accepted = append(accepted, sh)
			}
		}
		b.Run(backend, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, sh := range accepted {
					if _, err := sh.opt.ScheduleBackend(context.Background(), sh.params); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkSweepEffectiveShapes replays one pass of perfbench's
// sweep-effective workload through the library: one datavol.RunWith, on
// one worker, per effective-width request the workload sends (80 windows
// over 21 SOCs and 421 widths). The windows are built the way the workload
// builds them: every corpus scenario that is not a monster gives its width
// window minus the widths an earlier scenario on the same SOC claimed, cut
// into three near-equal chunks, each split again at any gap. The planners
// are built before the timer starts, as a warm service registry holds
// them.
func BenchmarkSweepEffectiveShapes(b *testing.B) {
	type window struct {
		opt    *sched.Optimizer
		lo, hi int
	}
	var windows []window
	opts := make(map[string]*sched.Optimizer)
	claimed := make(map[string]map[int]bool)
	for _, sc := range corpus.All() {
		if strings.HasPrefix(sc.Name, "monster") {
			continue
		}
		s := sc.Build()
		fp := socfile.Fingerprint(s)
		if opts[fp] == nil {
			opt, err := sched.New(s, sched.DefaultMaxWidth)
			if err != nil {
				b.Fatal(err)
			}
			opts[fp], claimed[fp] = opt, make(map[int]bool)
		}
		var free []int
		for w := sc.WidthLo; w <= sc.WidthHi; w++ {
			if !claimed[fp][w] {
				free = append(free, w)
				claimed[fp][w] = true
			}
		}
		for p := range 3 {
			chunk := free[p*len(free)/3 : (p+1)*len(free)/3]
			for i := 0; i < len(chunk); {
				j := i
				for j+1 < len(chunk) && chunk[j+1] == chunk[j]+1 {
					j++
				}
				windows = append(windows, window{opts[fp], chunk[i], chunk[j]})
				i = j + 1
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, win := range windows {
			if _, err := datavol.RunWith(win.opt, datavol.Config{WidthLo: win.lo, WidthHi: win.hi, Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkParetoSets measures Pareto staircase construction for a full SOC.
func BenchmarkParetoSets(b *testing.B) {
	s := bench.P93791Like()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pareto.ComputeAll(s, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowerBound measures the Table 1 LB column computation.
func BenchmarkLowerBound(b *testing.B) {
	s := bench.P93791Like()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lb.Compute(s, 48, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateD695 measures the full ATE/TAM replay with bit-level
// wrapper shifting.
func BenchmarkSimulateD695(b *testing.B) {
	s := bench.D695()
	sch, err := sched.SweepBest(s, sched.Params{TAMWidth: 32}, []int{10}, []int{1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tamsim.Simulate(s, sch, tamsim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDataVolRunD695WorkersN measures the Problem-3 width sweep on
// d695 at fixed worker counts: the Workers1 variant is the sequential
// baseline, Workers4 the parallel engine. On a multi-core host the
// Workers4 run is expected to be >= 2x faster wall-clock; on a single
// hardware thread both degenerate to the same work. The two variants
// return identical sweeps (asserted by TestSweepWidthsDeterministic).
func BenchmarkDataVolRunD695Workers1(b *testing.B) { benchDataVolRunD695(b, 1) }
func BenchmarkDataVolRunD695Workers4(b *testing.B) { benchDataVolRunD695(b, 4) }

func benchDataVolRunD695(b *testing.B, workers int) {
	s := bench.D695()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw, err := datavol.Run(s, datavol.Config{
			WidthLo: 8, WidthHi: 56,
			Percents: table1Percents, Deltas: table1Deltas,
			Workers: workers,
		})
		if err != nil {
			b.Fatal(err)
		}
		if sw.MinVolume <= 0 {
			b.Fatal("no volume minimum")
		}
	}
}

// BenchmarkWidthSweepDemo measures a Problem-3 width sweep on the demo SOC.
func BenchmarkWidthSweepDemo(b *testing.B) {
	s := bench.Demo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := datavol.Run(s, datavol.Config{
			WidthLo: 8, WidthHi: 32,
			Percents: []int{5, 15}, Deltas: []int{0, 1},
		}); err != nil {
			b.Fatal(err)
		}
	}
}
