package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
)

// loadBenchReport reads a -benchjson file (the socbench-benchjson/v1
// schema committed as BENCH_*.json baselines).
func loadBenchReport(path string) (benchJSONReport, error) {
	var rep benchJSONReport
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != "socbench-benchjson/v1" {
		return rep, fmt.Errorf("%s: unknown schema %q", path, rep.Schema)
	}
	return rep, nil
}

// compareBenchReports diffs current ns/op against a baseline. It returns a
// human-readable delta table and the list of gate failures: any benchmark
// tracked by the baseline that regressed more than maxPct percent, or that
// vanished from the current report. New benchmarks (in current only) are
// listed informationally and never fail the gate. When both reports record
// allocations, the rows in both also show allocs/op and B/op, which never
// gate.
func compareBenchReports(base, cur benchJSONReport, maxPct float64) (table string, failures []string) {
	curByName := make(map[string]benchJSONResult, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	allocs := hasAllocs(base) && hasAllocs(cur)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-28s %14s %14s %9s", "benchmark", "base ns/op", "new ns/op", "delta")
	if allocs {
		fmt.Fprintf(&sb, " %12s %12s %12s %12s", "base allocs", "new allocs", "base B/op", "new B/op")
	}
	sb.WriteString("\n")
	for _, b := range base.Benchmarks {
		nb, ok := curByName[b.Name]
		if !ok {
			fmt.Fprintf(&sb, "%-28s %14d %14s %9s\n", b.Name, b.NsPerOp, "-", "GONE")
			failures = append(failures, fmt.Sprintf("%s: tracked by the baseline but missing from the current report", b.Name))
			continue
		}
		delete(curByName, b.Name)
		if b.NsPerOp <= 0 {
			// A zero baseline would make every delta read +0.0% and
			// silently un-gate the benchmark; treat it as a broken file.
			fmt.Fprintf(&sb, "%-28s %14d %14d %9s\n", b.Name, b.NsPerOp, nb.NsPerOp, "BAD")
			failures = append(failures, fmt.Sprintf("%s: baseline ns/op %d is not positive (corrupt baseline file?)", b.Name, b.NsPerOp))
			continue
		}
		delta := 100 * (float64(nb.NsPerOp) - float64(b.NsPerOp)) / float64(b.NsPerOp)
		mark := ""
		if delta > maxPct {
			mark = "  << REGRESSION"
			failures = append(failures,
				fmt.Sprintf("%s: %d -> %d ns/op (%+.1f%%, limit +%.0f%%)", b.Name, b.NsPerOp, nb.NsPerOp, delta, maxPct))
		}
		fmt.Fprintf(&sb, "%-28s %14d %14d %+8.1f%%", b.Name, b.NsPerOp, nb.NsPerOp, delta)
		if allocs {
			fmt.Fprintf(&sb, " %12d %12d %12d %12d", b.AllocsPerOp, nb.AllocsPerOp, b.BytesPerOp, nb.BytesPerOp)
		}
		sb.WriteString(mark + "\n")
	}
	for _, b := range cur.Benchmarks {
		if _, ok := curByName[b.Name]; ok {
			fmt.Fprintf(&sb, "%-28s %14s %14d %9s\n", b.Name, "-", b.NsPerOp, "NEW")
		}
	}
	return sb.String(), failures
}

// hasAllocs reports whether a report records allocations.
func hasAllocs(rep benchJSONReport) bool {
	return slices.ContainsFunc(rep.Benchmarks, func(b benchJSONResult) bool { return b.AllocsPerOp > 0 || b.BytesPerOp > 0 })
}

// runBenchCmp is the -benchcmp gate: compare newPath against basePath and
// exit non-zero when any tracked benchmark regressed past maxPct percent.
func runBenchCmp(basePath, newPath string, maxPct float64) {
	base, err := loadBenchReport(basePath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadBenchReport(newPath)
	if err != nil {
		fatal(err)
	}
	table, failures := compareBenchReports(base, cur, maxPct)
	fmt.Printf("socbench: %s vs baseline %s (gate: +%.0f%% ns/op)\n%s", newPath, basePath, maxPct, table)
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "socbench: benchmark regression gate failed:\n")
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("socbench: benchmark gate passed")
}
