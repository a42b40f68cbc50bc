// Command socbench regenerates the DAC 2002 paper's evaluation artifacts
// on the repository's benchmark SOCs: Table 1 (scheduling regimes), Table 2
// (effective TAM widths), Fig. 1 (testing-time staircase), Fig. 9 (T/D/cost
// versus W), and the ablations DESIGN.md calls out.
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
//	socbench -all                     # everything (the EXPERIMENTS.md data)
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/corpus"
	"repro/internal/datavol"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/service"
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
		benchjson = flag.String("benchjson", "", "time the representative workloads and write JSON to this path (\"-\" = stdout); see BENCH_2.json")
		benchnote = flag.String("benchnote", "", "free-form note embedded in the -benchjson output (e.g. the baseline being compared against)")
		benchcmp  = flag.String("benchcmp", "", "baseline benchjson file to gate against; compares -benchnew (or the file just written by -benchjson) and exits 1 on regression")
		benchnew  = flag.String("benchnew", "", "current benchjson file for -benchcmp (default: the -benchjson path)")
		benchmax  = flag.Float64("benchmaxpct", 25, "max tolerated ns/op regression percent for the -benchcmp gate")
		obsTables = flag.Bool("obs", false, "schedule every corpus scenario with every backend and print the per-backend and per-stage latency tables")
	)
	flag.Parse()

	socs, err := pickSOCs(*socName)
	if err != nil {
		fatal(err)
	}

	ran := false
	if *benchjson != "" {
		ran = true
		runBenchJSON(*benchjson, *benchnote)
	}
	if *benchcmp != "" {
		ran = true
		cur := *benchnew
		if cur == "" {
			cur = *benchjson
		}
		if cur == "" || cur == "-" {
			fatal(fmt.Errorf("-benchcmp needs -benchnew (or a file-backed -benchjson) to compare against"))
		}
		runBenchCmp(*benchcmp, cur, *benchmax)
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

// benchJSONReport is the schema of the -benchjson output (and of the
// committed BENCH_2.json perf-trajectory baselines).
type benchJSONReport struct {
	Schema     string            `json:"schema"`
	Go         string            `json:"go"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	Note       string            `json:"note,omitempty"`
	Benchmarks []benchJSONResult `json:"benchmarks"`
}

type benchJSONResult struct {
	Name       string `json:"name"`
	Iterations int    `json:"iterations"`
	NsPerOp    int64  `json:"ns_per_op"`
}

// runBenchJSON times the representative workloads (the same shapes as the
// repository's go-test benchmarks, sequential so the numbers measure the
// algorithms rather than the host's core count) and writes them as JSON.
func runBenchJSON(path, note string) {
	grid5 := []int{1, 5, 10, 20, 40}
	grid3 := []int{0, 1, 2}
	workloads := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"DataVolRunD695Workers1", func(b *testing.B) {
			s := bench.D695()
			for i := 0; i < b.N; i++ {
				sw, err := datavol.Run(s, datavol.Config{
					WidthLo: 8, WidthHi: 56,
					Percents: grid5, Deltas: grid3,
					Workers: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				if sw.MinVolume <= 0 {
					b.Fatal("no volume minimum")
				}
			}
		}},
		{"SweepBestD695W32", func(b *testing.B) {
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
		}},
		{"ScheduleD695Rectpack", func(b *testing.B) {
			benchBackend(b, "rectpack", 0)
		}},
		{"ScheduleD695PreemptRectpack", func(b *testing.B) {
			benchBackend(b, "preempt-rectpack", 2)
		}},
		{"ScheduleD695Anneal", func(b *testing.B) {
			benchBackend(b, "anneal", 0)
		}},
		{"ScheduleD695Portfolio", func(b *testing.B) {
			benchBackend(b, "portfolio", 0)
		}},
		{"SingleScheduleP93791W48", func(b *testing.B) {
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
		}},
		{"ParetoSetsP93791", func(b *testing.B) {
			s := bench.P93791Like()
			for i := 0; i < b.N; i++ {
				if _, err := sched.New(s, sched.DefaultMaxWidth); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"ServiceScheduleD695", func(b *testing.B) {
			// One full socserved round-trip per op against a warm Planner
			// registry (the same shape as BenchmarkServiceScheduleD695).
			svc, err := service.New(service.Config{Preload: []string{"d695"}})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()
			body, err := json.Marshal(map[string]any{
				"soc":    "d695",
				"params": service.ParamsJSON{TAMWidth: 32, Percent: 10, Delta: 1},
			})
			if err != nil {
				b.Fatal(err)
			}
			do := func() {
				resp, err := ts.Client().Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("HTTP %d", resp.StatusCode)
				}
			}
			do() // warm up outside the timed region
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				do()
			}
		}},
		{"ServiceBatchColdD695", func(b *testing.B) {
			// One 8-width /v1/batch round-trip per op against a fresh
			// service each time, so every item is a cache miss.
			body := batchBody(b)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				svc, err := service.New(service.Config{Preload: []string{"d695"}})
				if err != nil {
					b.Fatal(err)
				}
				ts := httptest.NewServer(svc.Handler())
				b.StartTimer()
				postBatch(b, ts, body)
				b.StopTimer()
				ts.Close()
				svc.Close()
				b.StartTimer()
			}
		}},
		{"ServiceBatchWarmD695", func(b *testing.B) {
			// The identical batch against one long-lived service: after the
			// untimed warm-up, every op is served from the result cache.
			svc, err := service.New(service.Config{Preload: []string{"d695"}})
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()
			body := batchBody(b)
			postBatch(b, ts, body)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				postBatch(b, ts, body)
			}
		}},
	}
	rep := benchJSONReport{
		Schema: "socbench-benchjson/v1",
		Go:     runtime.Version(),
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		Note:   note,
	}
	for _, w := range workloads {
		r := testing.Benchmark(w.fn)
		rep.Benchmarks = append(rep.Benchmarks, benchJSONResult{
			Name:       w.name,
			Iterations: r.N,
			NsPerOp:    r.NsPerOp(),
		})
		fmt.Fprintf(os.Stderr, "socbench: %-24s %10d ns/op (%d iterations)\n", w.name, r.NsPerOp(), r.N)
	}
	out := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
}

// batchBody builds the 8-width d695 /v1/batch payload the batch
// workloads send (Workers: 1 per item, like every workload here).
func batchBody(b *testing.B) []byte {
	var items []map[string]any
	for w := 12; w <= 40; w += 4 {
		items = append(items, map[string]any{
			"soc":    "d695",
			"params": service.ParamsJSON{TAMWidth: w, Workers: 1},
		})
	}
	body, err := json.Marshal(map[string]any{"items": items, "workers": 1})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// postBatch sends one /v1/batch request and requires every item to land.
func postBatch(b *testing.B, ts *httptest.Server, body []byte) {
	resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("HTTP %d", resp.StatusCode)
	}
}

// benchBackend times one d695 W=32 run of a named registered backend
// through the registry dispatch path (Workers: 1, like every workload
// here, so racing backends run their legs sequentially). A non-zero
// preemptions budget keeps the preemptive backends from declining.
func benchBackend(b *testing.B, backend string, preemptions int) {
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
// (telemetry on, registries reset first) and prints the per-backend and
// per-stage latency tables — the offline counterpart of the service's
// /metrics latency block. -quick restricts the sweep to the first eight
// scenarios.
func runObs(quick bool, workers int) {
	obs.ResetLatency()
	scenarios := corpus.All()
	if quick && len(scenarios) > 8 {
		scenarios = scenarios[:8]
	}
	names := sched.Backends()
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
		for _, n := range names {
			p := params
			p.Backend = n
			if _, err := opt.ScheduleBackend(context.Background(), p); err != nil {
				fatal(fmt.Errorf("%s/%s: %w", sc.Name, n, err))
			}
		}
	}
	fmt.Printf("telemetry over %d corpus scenarios x %d backends\n\n", len(scenarios), len(names))
	lat := obs.LatencySnapshot()
	mustRender(latencyTable("Per-backend scheduling latency", lat.Backends))
	fmt.Println()
	mustRender(latencyTable("Per-stage latency", lat.Stages))
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
