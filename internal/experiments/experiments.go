// Package experiments regenerates every table and figure of the DAC 2002
// paper's evaluation section on the repository's benchmark SOCs: Table 1
// (wrapper/TAM co-optimization and test scheduling under four regimes),
// Table 2 (effective TAM widths for tester data volume reduction), Fig. 1
// (a core's testing-time staircase), and Fig. 9 (T, D, and cost curves
// versus W), plus three ablations: the δ bottleneck rescue (AblationDelta),
// flexible packing against fixed-width and shelf architectures
// (Baselines), and the idle-insertion and widening heuristics
// (AblationHeuristics).
package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/datavol"
	"repro/internal/lb"
	"repro/internal/pareto"
	"repro/internal/sched"
	"repro/internal/soc"
)

// PowerBudgetFactorPct is the default power budget as a percentage of the
// largest single-test power (the paper does not publish its constant; 110%
// binds firmly, producing the Table-1 power column's characteristic growth
// with W).
const PowerBudgetFactorPct = 110

// PreemptionBudget is the paper's Table-1 setting: maxpreempts = 2 for the
// larger cores.
const PreemptionBudget = 2

// Table1Widths returns the paper's Table 1 width column for a benchmark.
func Table1Widths(name string) []int {
	if name == "p34392like" || name == "p34392" {
		return []int{16, 24, 28, 32}
	}
	return []int{16, 32, 48, 64}
}

// Table1Row is one (SOC, W) row of Table 1.
type Table1Row struct {
	SOC        string
	TAMWidth   int
	LowerBound int64
	// NonPreemptive, Preemptive, PowerConstrained are the scheduled SOC
	// testing times under the three regimes (power-constrained includes
	// the preemption budgets, as in the paper). The classic scheduler
	// never splits a test, so the budgets change no schedule and
	// Preemptive equals NonPreemptive.
	NonPreemptive    int64
	Preemptive       int64
	PowerConstrained int64
	// Preemptions counts resume-after-gap events in the power run: 0 for
	// the classic scheduler.
	Preemptions int
	// PowerMax echoes the budget used.
	PowerMax int
}

// Table1 regenerates Table 1 for one SOC. percents/deltas override the
// sweep grid (nil = defaults); workers bounds sweep concurrency
// (0 = GOMAXPROCS, 1 = sequential).
func Table1(s *soc.SOC, percents, deltas []int, workers int) ([]Table1Row, error) {
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		return nil, err
	}
	// The optimizer already holds every Pareto staircase; derive the
	// preemption policy and the lower bounds from its cache instead of
	// redesigning wrappers per width.
	mp, err := opt.LargerCorePreemptions(PreemptionBudget)
	if err != nil {
		return nil, err
	}
	pmax := sched.DefaultPowerBudget(s, PowerBudgetFactorPct)
	var rows []Table1Row
	for _, w := range Table1Widths(s.Name) {
		bound, err := lb.FromSets(opt.ParetoSets(), w, sched.DefaultMaxWidth)
		if err != nil {
			return nil, err
		}
		np, err := opt.SweepBest(sched.Params{TAMWidth: w, Workers: workers}, percents, deltas)
		if err != nil {
			return nil, err
		}
		pre, err := opt.SweepBest(sched.Params{TAMWidth: w, MaxPreemptions: mp, Workers: workers}, percents, deltas)
		if err != nil {
			return nil, err
		}
		pw, err := opt.SweepBest(sched.Params{TAMWidth: w, MaxPreemptions: mp, PowerMax: pmax, Workers: workers}, percents, deltas)
		if err != nil {
			return nil, err
		}
		n := 0
		for _, a := range pw.Assignments {
			n += a.Preemptions
		}
		rows = append(rows, Table1Row{
			SOC:              s.Name,
			TAMWidth:         w,
			LowerBound:       bound.Value(),
			NonPreemptive:    np.Makespan,
			Preemptive:       pre.Makespan,
			PowerConstrained: pw.Makespan,
			Preemptions:      n,
			PowerMax:         pmax,
		})
	}
	return rows, nil
}

// Fig1Point is one point of the Fig. 1 staircase.
type Fig1Point struct {
	Width  int
	Time   int64
	Pareto bool
}

// Fig1 regenerates the Fig. 1 staircase: testing time versus TAM width for
// the designated core (the paper uses Core 6 of p93791; our p93791like
// embeds an engineered equivalent with the same plateau structure).
func Fig1(s *soc.SOC, coreID, maxWidth int) ([]Fig1Point, error) {
	c := s.Core(coreID)
	if c == nil {
		return nil, fmt.Errorf("experiments: no core %d in %s", coreID, s.Name)
	}
	ps, err := pareto.Compute(c, maxWidth)
	if err != nil {
		return nil, err
	}
	isPareto := make(map[int]bool)
	for _, p := range ps.Points {
		isPareto[p.Width] = true
	}
	var out []Fig1Point
	for _, p := range ps.Staircase() {
		out = append(out, Fig1Point{Width: p.Width, Time: p.Time, Pareto: isPareto[p.Width]})
	}
	return out, nil
}

// Fig9 holds the sweep behind Fig. 9 and Table 2 for one SOC.
type Fig9 struct {
	Sweep *datavol.Sweep
}

// Fig9Sweep runs the W sweep (non-preemptive, best-of-grid at each width).
// workers bounds the width fan-out (0 = GOMAXPROCS, 1 = sequential).
func Fig9Sweep(s *soc.SOC, lo, hi int, percents, deltas []int, workers int) (*Fig9, error) {
	sw, err := datavol.Run(s, datavol.Config{
		WidthLo:  lo,
		WidthHi:  hi,
		Percents: percents,
		Deltas:   deltas,
		Workers:  workers,
	})
	if err != nil {
		return nil, err
	}
	return &Fig9{Sweep: sw}, nil
}

// Table2Gammas returns the paper's Table 2 γ rows per SOC.
func Table2Gammas(name string) []float64 {
	switch name {
	case "d695":
		return []float64{0.1, 0.3, 0.5}
	case "p22810like", "p22810":
		return []float64{0.01, 0.3, 0.5}
	case "p34392like", "p34392":
		return []float64{0.2, 0.25, 0.3}
	case "p93791like", "p93791":
		return []float64{0.5, 0.95, 0.99}
	}
	return []float64{0.25, 0.5, 0.75}
}

// Table2Row is one γ row of Table 2.
type Table2Row struct {
	SOC     string
	Gamma   float64
	CostMin float64
	WEff    int
	TimeAtW int64
	VolAtW  int64
}

// Table2Result bundles a SOC's sweep minima with its γ rows.
type Table2Result struct {
	SOC            string
	MinTime        int64
	MinTimeWidth   int
	MinVolume      int64
	MinVolumeWidth int
	Rows           []Table2Row
}

// Table2 regenerates the Table 2 block for one SOC from a Fig. 9 sweep.
func Table2(f *Fig9) (*Table2Result, error) {
	sw := f.Sweep
	res := &Table2Result{
		SOC:            sw.SOC,
		MinTime:        sw.MinTime,
		MinTimeWidth:   sw.MinTimeWidth,
		MinVolume:      sw.MinVolume,
		MinVolumeWidth: sw.MinVolumeWidth,
	}
	for _, g := range Table2Gammas(sw.SOC) {
		eff, err := sw.EffectiveWidth(g)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table2Row{
			SOC:     sw.SOC,
			Gamma:   g,
			CostMin: eff.CostMin,
			WEff:    eff.TAMWidth,
			TimeAtW: eff.Time,
			VolAtW:  eff.Volume,
		})
	}
	return res, nil
}

// AblationDeltaRow compares δ=0 against δ∈{1..4} on the bottleneck SOC.
type AblationDeltaRow struct {
	TAMWidth                int
	MakespanDelta0          int64
	MakespanDeltaSwept      int64
	BottleneckPrefDelta0    int
	BottleneckPrefDeltaBest int
}

// AblationDelta reproduces the paper's §6 narrative on p34392: without the
// δ promotion the bottleneck core is assigned its α-preferred width and the
// SOC misses its minimum testing time; with δ ≥ 1 the core is widened to
// its highest Pareto width and the SOC reaches the bottleneck-bound
// minimum. workers bounds sweep concurrency (0 = GOMAXPROCS).
func AblationDelta(percent, workers int) ([]AblationDeltaRow, error) {
	s := bench.P34392Like()
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		return nil, err
	}
	const bottleneck = 18
	var rows []AblationDeltaRow
	for _, w := range []int{28, 32} {
		d0, err := opt.SweepBest(sched.Params{TAMWidth: w, Workers: workers}, []int{percent}, []int{0})
		if err != nil {
			return nil, err
		}
		ds, err := opt.SweepBest(sched.Params{TAMWidth: w, Workers: workers}, []int{percent}, []int{0, 1, 2, 3, 4})
		if err != nil {
			return nil, err
		}
		ps := opt.ParetoSet(bottleneck)
		rows = append(rows, AblationDeltaRow{
			TAMWidth:                w,
			MakespanDelta0:          d0.Makespan,
			MakespanDeltaSwept:      ds.Makespan,
			BottleneckPrefDelta0:    ps.PreferredWidth(percent, 0),
			BottleneckPrefDeltaBest: ps.PreferredWidth(percent, ds.Params.Delta),
		})
	}
	return rows, nil
}

// BaselineRow compares the flexible-width scheduler against the fixed-width
// TAM architecture and shelf packing at one width.
type BaselineRow struct {
	SOC        string
	TAMWidth   int
	Flexible   int64
	FixedWidth int64
	FixedBuses []int
	NFDH       int64
	FFDH       int64
}

// Baselines regenerates the architecture ablation for one SOC. workers
// bounds the flexible-scheduler sweep concurrency (0 = GOMAXPROCS).
func Baselines(s *soc.SOC, widths []int, maxBuses int, percents, deltas []int, workers int) ([]BaselineRow, error) {
	if len(widths) == 0 {
		widths = Table1Widths(s.Name)
	}
	if maxBuses == 0 {
		maxBuses = 3
	}
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		return nil, err
	}
	var rows []BaselineRow
	for _, w := range widths {
		flex, err := opt.SweepBest(sched.Params{TAMWidth: w, Workers: workers}, percents, deltas)
		if err != nil {
			return nil, err
		}
		fixed, err := baseline.FixedWidth(s, w, sched.DefaultMaxWidth, maxBuses)
		if err != nil {
			return nil, err
		}
		nf, err := baseline.BestShelves(s, w, sched.DefaultMaxWidth, percents, deltas, baseline.NFDH)
		if err != nil {
			return nil, err
		}
		ff, err := baseline.BestShelves(s, w, sched.DefaultMaxWidth, percents, deltas, baseline.FFDH)
		if err != nil {
			return nil, err
		}
		rows = append(rows, BaselineRow{
			SOC:        s.Name,
			TAMWidth:   w,
			Flexible:   flex.Makespan,
			FixedWidth: fixed.Makespan,
			FixedBuses: fixed.BusWidths,
			NFDH:       nf.Makespan,
			FFDH:       ff.Makespan,
		})
	}
	return rows, nil
}

// AblationHeuristics measures what each scheduler heuristic contributes:
// full algorithm vs no idle-time insertion, vs no widening, vs both off.
type AblationHeuristicsRow struct {
	SOC                     string
	TAMWidth                int
	Full, NoInsert, NoWiden int64
	Neither                 int64
}

// AblationHeuristics runs the heuristic on/off matrix for one SOC.
// workers bounds sweep concurrency (0 = GOMAXPROCS).
func AblationHeuristics(s *soc.SOC, widths []int, percents, deltas []int, workers int) ([]AblationHeuristicsRow, error) {
	if len(widths) == 0 {
		widths = Table1Widths(s.Name)
	}
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		return nil, err
	}
	var rows []AblationHeuristicsRow
	for _, w := range widths {
		run := func(insertSlack int, noWiden bool) (int64, error) {
			sch, err := opt.SweepBest(sched.Params{
				TAMWidth:        w,
				InsertSlack:     insertSlack,
				DisableWidening: noWiden,
				Workers:         workers,
			}, percents, deltas)
			if err != nil {
				return 0, err
			}
			return sch.Makespan, nil
		}
		full, err := run(sched.DefaultInsertSlack, false)
		if err != nil {
			return nil, err
		}
		noIns, err := run(-1, false)
		if err != nil {
			return nil, err
		}
		noWid, err := run(sched.DefaultInsertSlack, true)
		if err != nil {
			return nil, err
		}
		neither, err := run(-1, true)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationHeuristicsRow{
			SOC: s.Name, TAMWidth: w,
			Full: full, NoInsert: noIns, NoWiden: noWid, Neither: neither,
		})
	}
	return rows, nil
}
