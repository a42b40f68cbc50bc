// Command socbench regenerates the DAC 2002 paper's evaluation artifacts
// on the repository's benchmark SOCs: Table 1 (scheduling regimes), Table 2
// (effective TAM widths), Fig. 1 (testing-time staircase), Fig. 9 (T/D/cost
// versus W), and three ablations (the δ bottleneck rescue, flexible packing
// against fixed-width and shelf architectures, and the idle-insertion and
// widening heuristics). It also prints the per-span latency table and gates
// `go test` benchmark output against a committed baseline.
//
// Usage:
//
//	socbench -backends                # every registered backend head-to-head
//	socbench -table 1                 # Table 1 for all four SOCs
//	socbench -table 2 -soc d695       # Table 2 block for one SOC
//	socbench -fig 1                   # Fig. 1 staircase (CSV)
//	socbench -fig 9a -soc p22810like  # Fig. 9(a): T vs W (CSV)
//	socbench -ablation delta          # δ-heuristic ablation on p34392like
//	socbench -ablation baseline       # flexible vs fixed-width vs shelves
//	socbench -ablation heuristics     # idle-insertion / widening matrix
//	socbench -all                     # everything above
//	socbench -obs -quick              # per-span latency over corpus scenarios
//	socbench -benchcmp BASE.txt -benchnew NEW.txt  # benchmark regression gate
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/soc"

	// Register the search backends for the -backends comparison (and as
	// portfolio racers).
	_ "repro/internal/rectpack"
)

func main() {
	var (
		table     = flag.String("table", "", "regenerate a table: 1 or 2")
		backends  = flag.Bool("backends", false, "compare every registered scheduler backend on the benchmark SOCs")
		fig       = flag.String("fig", "", "regenerate a figure: 1, 9a, 9b, 9c, 9d")
		ablation  = flag.String("ablation", "", "run an ablation: delta, baseline, heuristics")
		socName   = flag.String("soc", "", "restrict to one SOC (default: all four)")
		quick     = flag.Bool("quick", false, "smaller sweep ranges (coarser widths, reduced grid)")
		workers   = flag.Int("workers", 0, "concurrent scheduler runs per sweep (0 = all CPUs, 1 = sequential)")
		all       = flag.Bool("all", false, "regenerate everything")
		benchcmp  = flag.String("benchcmp", "", "baseline `file` of go test -bench -benchmem output to gate -benchnew against; exits 1 on a regression")
		benchnew  = flag.String("benchnew", "", "`file` of go test -bench -benchmem output to compare with the -benchcmp baseline")
		obsTables = flag.Bool("obs", false, "schedule every corpus scenario with every backend and print the per-span latency table")
	)
	flag.Parse()

	socs, err := pickSOCs(*socName)
	if err != nil {
		fatal(err)
	}

	ran := false
	if *benchcmp != "" {
		ran = true
		if *benchnew == "" {
			fatal(fmt.Errorf("-benchcmp needs -benchnew, the output to compare with the baseline"))
		}
		runBenchCmp(*benchcmp, *benchnew)
	}
	if *obsTables {
		ran = true
		runObs(*quick, *workers)
	}
	if *all || *backends {
		ran = true
		runBackends(socs, *quick, *workers)
	}
	if *all || *table == "1" {
		ran = true
		runTable1(socs, *workers)
	}
	if *all || *table == "2" {
		ran = true
		runTable2(socs, *quick, *workers)
	}
	if *all || *fig == "1" {
		ran = true
		runFig1()
	}
	if *all || *fig == "9a" || *fig == "9b" || *fig == "9c" || *fig == "9d" {
		ran = true
		which := *fig
		if *all {
			which = ""
		}
		runFig9(socs, which, *quick, *workers)
	}
	if *all || *ablation == "delta" {
		ran = true
		runAblationDelta(*workers)
	}
	if *all || *ablation == "baseline" {
		ran = true
		runAblationBaseline(socs, *workers)
	}
	if *all || *ablation == "heuristics" {
		ran = true
		runAblationHeuristics(socs, *workers)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

func pickSOCs(name string) ([]*soc.SOC, error) {
	if name == "" {
		return bench.All(), nil
	}
	s, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return []*soc.SOC{s}, nil
}

// runBackends races every registered scheduling backend on the benchmark
// SOCs and reports makespans and wall-clock per backend, plus the winner.
func runBackends(socs []*soc.SOC, quick bool, workers int) {
	widths := []int{16, 32, 48, 64}
	if quick {
		widths = []int{32}
	}
	names := sched.Backends()
	headers := []string{"SOC", "W"}
	for _, n := range names {
		headers = append(headers, n+" cycles", n+" ms")
	}
	headers = append(headers, "winner")
	t := &report.Table{
		Title:   "Scheduler backends: best makespan per backend (cycles, wall-clock ms)",
		Headers: headers,
	}
	for _, s := range socs {
		opt, err := sched.New(s, sched.DefaultMaxWidth)
		if err != nil {
			fatal(err)
		}
		for _, w := range widths {
			row := []any{s.Name, w}
			winner := ""
			var best int64
			for _, n := range names {
				params := sched.Params{TAMWidth: w, Workers: workers, Backend: n}
				// A backend outside its regime (preempt-rectpack without
				// budgets here) declines rather than competing.
				if b, err := sched.BackendByName(n); err == nil {
					if _, declined := sched.BackendDeclines(b, params); declined {
						row = append(row, "declined", "-")
						continue
					}
				}
				start := time.Now()
				sch, err := opt.ScheduleBackend(context.Background(), params)
				if err != nil {
					fatal(err)
				}
				row = append(row, sch.Makespan, time.Since(start).Milliseconds())
				if winner == "" || sch.Makespan < best {
					winner, best = n, sch.Makespan
				}
			}
			t.AddRow(append(row, winner)...)
		}
	}
	mustRender(t)
}

// runObs schedules every corpus scenario with every registered backend
// that accepts the scenario's parameters, each run under its own trace so
// every span it opens lands in the span histograms (registry reset
// first), and prints the per-span latency table — the offline
// counterpart of the service's /metrics latency block. -quick restricts
// the sweep to the first eight scenarios.
func runObs(quick bool, workers int) {
	obs.ResetLatency()
	tracer := obs.NewTracer(1)
	scenarios := corpus.All()
	if quick && len(scenarios) > 8 {
		scenarios = scenarios[:8]
	}
	for _, sc := range scenarios {
		s := sc.Build()
		params, err := sc.ResolveParams(s)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sc.Name, err))
		}
		opt, err := sched.New(s, sched.DefaultMaxWidth)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", sc.Name, err))
		}
		params.Workers = workers
		for _, n := range sched.Backends() {
			p := params
			p.Backend = n
			if b, err := sched.BackendByName(n); err == nil {
				if _, declined := sched.BackendDeclines(b, p); declined {
					continue // as the portfolio does: a decliner is not run
				}
			}
			if err := scheduleTraced(tracer, opt, p); err != nil {
				fatal(fmt.Errorf("%s/%s: %w", sc.Name, n, err))
			}
		}
	}
	fmt.Printf("telemetry over %d corpus scenarios\n", len(scenarios))
	mustRender(latencyTable("Per-span latency", obs.SpanLatency()))
}

// scheduleTraced runs one backend under a trace of its own.
func scheduleTraced(tracer *obs.Tracer, opt *sched.Optimizer, params sched.Params) error {
	ctx, span := tracer.StartTrace(context.Background(), "socbench/run")
	defer span.End()
	_, err := opt.ScheduleBackend(ctx, params)
	return err
}

// latencyTable renders one histogram registry snapshot, sorted by name.
func latencyTable(title string, hists map[string]obs.HistSnapshot) *report.Table {
	t := &report.Table{
		Title:   title,
		Headers: []string{"name", "count", "mean", "p50", "p90", "p99", "max"},
	}
	names := make([]string, 0, len(hists))
	for n := range hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := hists[n]
		t.AddRow(n, h.Count, fmtNs(h.MeanNs), fmtNs(h.P50Ns), fmtNs(h.P90Ns), fmtNs(h.P99Ns), fmtNs(h.MaxNs))
	}
	return t
}

// fmtNs renders a nanosecond quantile human-readably. The ASCII "us"
// spelling keeps report.Table's byte-counted columns aligned.
func fmtNs(ns int64) string {
	return strings.ReplaceAll(time.Duration(ns).Round(time.Microsecond).String(), "µ", "u")
}

func runTable1(socs []*soc.SOC, workers int) {
	t := &report.Table{
		Title:   "Table 1: wrapper/TAM co-optimization and test scheduling (cycles)",
		Headers: []string{"SOC", "W", "lower bound", "non-preemptive", "preemptive", "preempt+power", "power budget"},
	}
	for _, s := range socs {
		rows, err := experiments.Table1(s, nil, nil, workers)
		if err != nil {
			fatal(err)
		}
		for _, r := range rows {
			t.AddRow(r.SOC, r.TAMWidth, r.LowerBound, r.NonPreemptive, r.Preemptive, r.PowerConstrained, r.PowerMax)
		}
	}
	mustRender(t)
}

func runTable2(socs []*soc.SOC, quick bool, workers int) {
	lo, hi := 4, 80
	if quick {
		lo, hi = 8, 72
	}
	for _, s := range socs {
		f9, err := experiments.Fig9Sweep(s, lo, hi, grid(quick), nil, workers)
		if err != nil {
			fatal(err)
		}
		res, err := experiments.Table2(f9)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\nTable 2 [%s]: T_min=%d at W=%d; D_min=%d bits at W=%d\n",
			res.SOC, res.MinTime, res.MinTimeWidth, res.MinVolume, res.MinVolumeWidth)
		t := &report.Table{
			Headers: []string{"gamma", "C_min", "W_eff", "T at W_eff", "D at W_eff"},
		}
		for _, r := range res.Rows {
			t.AddRow(fmt.Sprintf("%.2f", r.Gamma), fmt.Sprintf("%.3f", r.CostMin), r.WEff, r.TimeAtW, r.VolAtW)
		}
		mustRender(t)
	}
}

func runFig1() {
	s := bench.P93791Like()
	pts, err := experiments.Fig1(s, 6, 64)
	if err != nil {
		fatal(err)
	}
	fmt.Println("Fig 1: testing time vs TAM width, p93791like core 6 (CSV)")
	var rows [][]string
	for _, p := range pts {
		rows = append(rows, []string{fmt.Sprint(p.Width), fmt.Sprint(p.Time), fmt.Sprint(p.Pareto)})
	}
	if err := report.WriteCSV(os.Stdout, []string{"width", "cycles", "pareto"}, rows); err != nil {
		fatal(err)
	}
}

func runFig9(socs []*soc.SOC, which string, quick bool, workers int) {
	lo, hi := 4, 80
	if quick {
		lo, hi = 8, 72
	}
	for _, s := range socs {
		f9, err := experiments.Fig9Sweep(s, lo, hi, grid(quick), nil, workers)
		if err != nil {
			fatal(err)
		}
		sw := f9.Sweep
		if which == "" || which == "9a" {
			fmt.Printf("\nFig 9(a) [%s]: testing time vs W (CSV)\n", s.Name)
			var rows [][]string
			for _, p := range sw.Samples {
				rows = append(rows, []string{fmt.Sprint(p.TAMWidth), fmt.Sprint(p.Time)})
			}
			mustCSV([]string{"W", "T_cycles"}, rows)
		}
		if which == "" || which == "9b" {
			fmt.Printf("\nFig 9(b) [%s]: tester data volume vs W (CSV)\n", s.Name)
			var rows [][]string
			for _, p := range sw.Samples {
				rows = append(rows, []string{fmt.Sprint(p.TAMWidth), fmt.Sprint(p.Volume)})
			}
			mustCSV([]string{"W", "D_bits"}, rows)
		}
		for _, g := range []struct {
			key   string
			gamma float64
		}{{"9c", 0.5}, {"9d", 0.75}} {
			if which != "" && which != g.key {
				continue
			}
			fmt.Printf("\nFig 9(%s) [%s]: cost C(γ=%.2f) vs W (CSV)\n", g.key[1:], s.Name, g.gamma)
			var rows [][]string
			for _, p := range sw.CostCurve(g.gamma) {
				rows = append(rows, []string{fmt.Sprint(p.TAMWidth), fmt.Sprintf("%.4f", p.Cost)})
			}
			mustCSV([]string{"W", "C"}, rows)
		}
	}
}

func runAblationDelta(workers int) {
	rows, err := experiments.AblationDelta(10, workers)
	if err != nil {
		fatal(err)
	}
	t := &report.Table{
		Title:   "Ablation: δ bottleneck-rescue on p34392like (α=10)",
		Headers: []string{"W", "makespan δ=0", "makespan δ swept", "core18 pref δ=0", "core18 pref best δ"},
	}
	for _, r := range rows {
		t.AddRow(r.TAMWidth, r.MakespanDelta0, r.MakespanDeltaSwept, r.BottleneckPrefDelta0, r.BottleneckPrefDeltaBest)
	}
	mustRender(t)
}

func runAblationBaseline(socs []*soc.SOC, workers int) {
	t := &report.Table{
		Title:   "Ablation: flexible-width packing vs fixed-width TAMs vs shelf packing (cycles)",
		Headers: []string{"SOC", "W", "flexible", "fixed-width", "buses", "NFDH", "FFDH"},
	}
	for _, s := range socs {
		rows, err := experiments.Baselines(s, nil, 3, nil, nil, workers)
		if err != nil {
			fatal(err)
		}
		for _, r := range rows {
			t.AddRow(r.SOC, r.TAMWidth, r.Flexible, r.FixedWidth, fmt.Sprint(r.FixedBuses), r.NFDH, r.FFDH)
		}
	}
	mustRender(t)
}

func runAblationHeuristics(socs []*soc.SOC, workers int) {
	t := &report.Table{
		Title:   "Ablation: idle-time insertion and width-growing heuristics (cycles)",
		Headers: []string{"SOC", "W", "full", "no insertion", "no widening", "neither"},
	}
	for _, s := range socs {
		rows, err := experiments.AblationHeuristics(s, nil, nil, nil, workers)
		if err != nil {
			fatal(err)
		}
		for _, r := range rows {
			t.AddRow(r.SOC, r.TAMWidth, r.Full, r.NoInsert, r.NoWiden, r.Neither)
		}
	}
	mustRender(t)
}

func grid(quick bool) []int {
	if quick {
		return []int{1, 4, 10, 20, 40}
	}
	return nil
}

func mustRender(t *report.Table) {
	fmt.Println()
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func mustCSV(headers []string, rows [][]string) {
	if err := report.WriteCSV(os.Stdout, headers, rows); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "socbench:", err)
	os.Exit(1)
}
