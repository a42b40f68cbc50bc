// Command soctest schedules one SOC test description and reports the
// result: SOC testing time, per-core TAM assignments, constraint outcomes,
// and optionally an ASCII Gantt chart, an SVG plot, or CSV rows.
//
// Usage:
//
//	soctest -soc d695 -w 32                          # built-in benchmark
//	soctest -file mychip.soc -w 48 -gantt            # .soc file + Gantt
//	soctest -soc d695 -w 64 -preempt 2 -powerfactor 110
//	soctest -soc p93791like -w 48 -svg out.svg -csv out.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bench"
	"repro/internal/lb"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/schedio"
	"repro/internal/soc"
	"repro/internal/socfile"
	"repro/internal/tamsim"
	"repro/internal/wrapper"
	"repro/internal/wrapperrtl"

	// Register the search backends for -backend rectpack /
	// preempt-rectpack / anneal (and as portfolio racers).
	_ "repro/internal/rectpack"
)

func main() {
	var (
		socName     = flag.String("soc", "", "built-in benchmark SOC (d695, p22810like, p34392like, p93791like, demo8)")
		file        = flag.String("file", "", "path to a .soc description (alternative to -soc)")
		w           = flag.Int("w", 32, "total SOC TAM width W")
		percent     = flag.Int("alpha", 0, "preferred-width percent α (0 = sweep the grid; classic backend only)")
		delta       = flag.Int("delta", -1, "Pareto promotion δ (-1 = sweep the grid; classic backend only)")
		backend     = flag.String("backend", "", "scheduling backend: "+strings.Join(sched.Backends(), ", ")+" (default classic)")
		preempt     = flag.Int("preempt", 0, "preemption budget for larger cores (0 = non-preemptive)")
		powerFactor = flag.Int("powerfactor", 0, "power budget as % of the largest test power (0 = unconstrained)")
		gantt       = flag.Bool("gantt", false, "print an ASCII Gantt chart")
		ganttCols   = flag.Int("ganttcols", 100, "Gantt chart width in characters")
		svgPath     = flag.String("svg", "", "write an SVG plot of the packed bin")
		csvPath     = flag.String("csv", "", "write per-core assignments as CSV")
		jsonPath    = flag.String("json", "", "write the schedule as versioned JSON (schedio format)")
		verilogDir  = flag.String("verilog", "", "write one structural wrapper Verilog module per core into this directory")
		simulate    = flag.Bool("sim", false, "replay the schedule on the simulated ATE/TAM")
		verbose     = flag.Bool("v", false, "print per-core assignments")
	)
	flag.Parse()

	s, err := loadSOC(*socName, *file)
	if err != nil {
		fatal(err)
	}

	params := sched.Params{TAMWidth: *w}
	if *preempt > 0 {
		mp, err := sched.LargerCorePreemptions(s, sched.DefaultMaxWidth, *preempt)
		if err != nil {
			fatal(err)
		}
		params.MaxPreemptions = mp
	}
	if *powerFactor > 0 {
		params.PowerMax = sched.DefaultPowerBudget(s, *powerFactor)
	}

	var schedule *sched.Schedule
	switch {
	case *backend != "" && *backend != sched.DefaultBackend:
		params.Backend = *backend
		var opt *sched.Optimizer
		if opt, err = sched.New(s, sched.DefaultMaxWidth); err == nil {
			schedule, err = opt.ScheduleBackend(context.Background(), params)
		}
	case *percent > 0 && *delta >= 0:
		params.Percent, params.Delta = *percent, *delta
		schedule, err = sched.Run(s, params)
	default:
		var percents, deltas []int
		if *percent > 0 {
			percents = []int{*percent}
		}
		if *delta >= 0 {
			deltas = []int{*delta}
		}
		schedule, err = sched.SweepBest(s, params, percents, deltas)
	}
	if err != nil {
		fatal(err)
	}
	if err := sched.Verify(s, schedule); err != nil {
		fatal(fmt.Errorf("schedule failed verification: %v", err))
	}

	bound, err := lb.Compute(s, *w, sched.DefaultMaxWidth)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("SOC %s  W=%d\n", s.Name, *w)
	fmt.Printf("testing time  %d cycles (lower bound %d, +%.2f%%)\n",
		schedule.Makespan, bound.Value(),
		100*float64(schedule.Makespan-bound.Value())/float64(bound.Value()))
	fmt.Printf("TAM idle area %d wire-cycles (utilization %.1f%%)\n",
		schedule.IdleArea(), 100*schedule.Utilization())
	fmt.Printf("data volume   %d bits (per-pin depth %d)\n", schedule.DataVolume(), schedule.Makespan)
	shownBackend := schedule.Params.Backend
	if shownBackend == "" {
		shownBackend = sched.DefaultBackend
	}
	fmt.Printf("params        backend=%s alpha=%d delta=%d powermax=%d\n",
		shownBackend, schedule.Params.Percent, schedule.Params.Delta, schedule.Params.PowerMax)

	if *verbose {
		t := &report.Table{
			Headers: []string{"core", "name", "width", "start", "end", "T(w)", "pieces", "preempts"},
		}
		for _, c := range s.Cores {
			a := schedule.Assignments[c.ID]
			t.AddRow(c.ID, c.Name, a.Width, a.Start(), a.End(), a.BaseTime, len(a.Pieces), a.Preemptions)
		}
		fmt.Println()
		if err := t.Render(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *gantt {
		fmt.Println()
		if err := report.Gantt(os.Stdout, schedule, *ganttCols); err != nil {
			fatal(err)
		}
	}
	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		if err != nil {
			fatal(err)
		}
		if err := report.SVG(f, schedule); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *svgPath)
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		var rows [][]string
		for _, c := range s.Cores {
			a := schedule.Assignments[c.ID]
			for _, p := range a.Pieces {
				rows = append(rows, []string{
					fmt.Sprint(c.ID), c.Name, fmt.Sprint(a.Width),
					fmt.Sprint(p.Start), fmt.Sprint(p.End), fmt.Sprint(p.Wires),
				})
			}
		}
		if err := report.WriteCSV(f, []string{"core", "name", "width", "start", "end", "wires"}, rows); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if *jsonPath != "" {
		if err := schedio.SaveFile(*jsonPath, schedule); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *verilogDir != "" {
		if err := os.MkdirAll(*verilogDir, 0o755); err != nil {
			fatal(err)
		}
		for _, c := range s.Cores {
			a := schedule.Assignments[c.ID]
			d, err := wrapper.DesignWrapper(c, a.Width)
			if err != nil {
				fatal(err)
			}
			m, err := wrapperrtl.Elaborate(c, d)
			if err != nil {
				fatal(err)
			}
			path := filepath.Join(*verilogDir, fmt.Sprintf("wrapper_%s.v", c.Name))
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := m.WriteVerilog(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("wrote %d wrapper modules to %s\n", len(s.Cores), *verilogDir)
	}
	if *simulate {
		res, err := tamsim.Simulate(s, schedule, tamsim.Options{})
		if err != nil {
			fatal(fmt.Errorf("simulation: %v", err))
		}
		fmt.Printf("simulation    makespan=%d, %d/%d cores bit-verified, payload %d bits (%.2fx of tester memory)\n",
			res.MeasuredMakespan, res.BitLevelCores, len(res.Cores), res.PayloadBits, res.PayloadEfficiency())
	}
}

func loadSOC(name, file string) (*soc.SOC, error) {
	switch {
	case name != "" && file != "":
		return nil, fmt.Errorf("give either -soc or -file, not both")
	case file != "":
		return socfile.ParseFile(file)
	case name != "":
		return bench.ByName(name)
	default:
		return nil, fmt.Errorf("give -soc <benchmark> or -file <path.soc>")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "soctest:", err)
	os.Exit(1)
}
