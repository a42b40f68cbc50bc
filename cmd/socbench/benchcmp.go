package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// The -benchcmp gate's bounds on a tracked benchmark's median. The ns/op
// bound absorbs host noise; allocation counts do not depend on the host,
// so their bound is tighter.
const (
	maxNsPct     = 25
	maxAllocsPct = 10
)

// benchResult is one benchmark's samples in a `go test -bench -benchmem`
// output: one ns/op and one allocs/op per result line (-count N prints N).
// The name keeps the "-N" suffix the testing package appends when
// GOMAXPROCS is N > 1, so a run under another -cpu has other names.
type benchResult struct {
	name       string
	ns, allocs []float64
}

// readBench parses a `go test -bench -benchmem` output into one result
// per benchmark, in order of first appearance. Every line that is not a
// result line (goos:, pkg:, PASS, ok, a benchmark's own log) is skipped.
// It refuses an output without results and a result without allocs/op
// (a run without -benchmem).
func readBench(r io.Reader) ([]*benchResult, error) {
	var out []*benchResult
	byName := make(map[string]*benchResult)
	sc := bufio.NewScanner(r)
	for line := 1; sc.Scan(); line++ {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue // the name line a benchmark that logs prints first
		}
		ns, allocs := math.NaN(), math.NaN()
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: %s: %w", line, f[0], err)
			}
			switch f[i+1] {
			case "ns/op":
				ns = v
			case "allocs/op":
				allocs = v
			}
		}
		if !(ns > 0) || math.IsNaN(allocs) {
			return nil, fmt.Errorf("line %d: %s: want a positive ns/op and an allocs/op (go test -benchmem)", line, f[0])
		}
		b := byName[f[0]]
		if b == nil {
			b = &benchResult{name: f[0]}
			byName[f[0]] = b
			out = append(out, b)
		}
		b.ns = append(b.ns, ns)
		b.allocs = append(b.allocs, allocs)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no benchmark results")
	}
	return out, nil
}

// median returns the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	s := slices.Sorted(slices.Values(xs))
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// pctChange is the percent change from base to cur; any growth from zero
// is infinite.
func pctChange(base, cur float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * (cur - base) / base
}

// compareBench gates cur against base. It returns a delta table of the
// medians and one failure, naming the benchmark, for every benchmark of
// base that is missing from cur (as it is when cur ran under another
// -cpu), has fewer samples, or whose median exceeds the baseline's by
// more than maxNsPct ns/op or maxAllocsPct allocs/op. Benchmarks only cur
// has are listed and never fail.
func compareBench(base, cur []*benchResult) (table string, failures []string) {
	curByName := make(map[string]*benchResult, len(cur))
	for _, b := range cur {
		curByName[b.name] = b
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-36s %7s %13s %13s %8s %11s %11s %8s\n",
		"benchmark", "samples", "base ns/op", "new ns/op", "delta", "base allocs", "new allocs", "delta")
	for _, b := range base {
		nb := curByName[b.name]
		delete(curByName, b.name)
		fail := ""
		switch {
		case nb == nil:
			fail = "missing from the new run (a run under another -cpu names it with another -N suffix)"
		case len(nb.ns) < len(b.ns):
			fail = fmt.Sprintf("%d samples, the baseline has %d", len(nb.ns), len(b.ns))
		}
		if fail != "" {
			fmt.Fprintf(&sb, "%-36s %s\n", b.name, fail)
			failures = append(failures, b.name+": "+fail)
			continue
		}
		ns0, ns1 := median(b.ns), median(nb.ns)
		al0, al1 := median(b.allocs), median(nb.allocs)
		nsPct, alPct := pctChange(ns0, ns1), pctChange(al0, al1)
		fmt.Fprintf(&sb, "%-36s %7d %13.0f %13.0f %+7.1f%% %11.0f %11.0f %+7.1f%%\n",
			b.name, len(nb.ns), ns0, ns1, nsPct, al0, al1, alPct)
		if nsPct > maxNsPct {
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%, limit +%d%%)", b.name, ns0, ns1, nsPct, maxNsPct))
		}
		if alPct > maxAllocsPct {
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f allocs/op (%+.1f%%, limit +%d%%)", b.name, al0, al1, alPct, maxAllocsPct))
		}
	}
	for _, b := range cur {
		if curByName[b.name] != nil {
			fmt.Fprintf(&sb, "%-36s %7d %13s %13.0f %8s %11s %11.0f %8s\n",
				b.name, len(b.ns), "-", median(b.ns), "NEW", "-", median(b.allocs), "NEW")
		}
	}
	return sb.String(), failures
}

// loadBench reads one `go test -bench -benchmem` output file.
func loadBench(path string) ([]*benchResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	res, err := readBench(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// runBenchCmp is the -benchcmp gate: compare newPath against basePath and
// exit non-zero when any tracked benchmark fails compareBench.
func runBenchCmp(basePath, newPath string) {
	base, err := loadBench(basePath)
	if err != nil {
		fatal(err)
	}
	cur, err := loadBench(newPath)
	if err != nil {
		fatal(err)
	}
	table, failures := compareBench(base, cur)
	fmt.Printf("socbench: %s vs baseline %s (medians; gate: +%d%% ns/op, +%d%% allocs/op)\n%s",
		newPath, basePath, maxNsPct, maxAllocsPct, table)
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "socbench: benchmark regression gate failed:\n")
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		os.Exit(1)
	}
	fmt.Println("socbench: benchmark gate passed")
}
