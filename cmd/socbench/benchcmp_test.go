package main

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// samples returns n result lines of one benchmark, as
// `go test -bench -benchmem` prints them.
func samples(n int, name string, ns, allocs int) string {
	var sb strings.Builder
	for range n {
		fmt.Fprintf(&sb, "%s \t    1000\t %8d ns/op\t    4096 B/op\t %6d allocs/op\n", name, ns, allocs)
	}
	return sb.String()
}

func mustReadBench(t *testing.T, out string) []*benchResult {
	t.Helper()
	res, err := readBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCompareBenchReports(t *testing.T) {
	base := mustReadBench(t, "goos: linux\npkg: repro\n"+
		samples(5, "BenchmarkA", 1000, 100)+samples(5, "BenchmarkB", 2000, 0)+samples(5, "BenchmarkC", 500, 10)+"PASS\n")
	for _, tc := range []struct {
		name string
		cur  string
		fail string // the one benchmark that must fail, or "" to pass
	}{
		{"within-threshold", samples(5, "BenchmarkA", 1200, 105) + samples(5, "BenchmarkB", 1500, 0) + samples(5, "BenchmarkC", 500, 10), ""},
		{"boundary-is-allowed", samples(5, "BenchmarkA", 1250, 110) + samples(5, "BenchmarkB", 2000, 0) + samples(5, "BenchmarkC", 500, 10), ""},
		{"regression-fails", samples(5, "BenchmarkA", 1260, 100) + samples(5, "BenchmarkB", 2000, 0) + samples(5, "BenchmarkC", 500, 10), "BenchmarkA"},
		{"allocs-regression-fails", samples(5, "BenchmarkA", 1000, 111) + samples(5, "BenchmarkB", 2000, 0) + samples(5, "BenchmarkC", 500, 10), "BenchmarkA"},
		{"allocs-from-zero-fails", samples(5, "BenchmarkA", 1000, 100) + samples(5, "BenchmarkB", 2000, 1) + samples(5, "BenchmarkC", 500, 10), "BenchmarkB"},
		{"missing-tracked-benchmark-fails", samples(5, "BenchmarkA", 1000, 100) + samples(5, "BenchmarkC", 500, 10), "BenchmarkB"},
		{"gomaxprocs-suffix-fails", samples(5, "BenchmarkA", 1000, 100) + samples(5, "BenchmarkB", 2000, 0) + samples(5, "BenchmarkC-2", 500, 10), "BenchmarkC"},
		{"fewer-samples-fails", samples(5, "BenchmarkA", 1000, 100) + samples(5, "BenchmarkB", 2000, 0) + samples(4, "BenchmarkC", 500, 10), "BenchmarkC"},
		{"new-benchmark-is-informational", samples(5, "BenchmarkA", 1000, 100) + samples(5, "BenchmarkB", 2000, 0) + samples(5, "BenchmarkC", 500, 10) + samples(1, "BenchmarkD", 42, 7), ""},
		{"improvements-pass", samples(5, "BenchmarkA", 100, 10) + samples(5, "BenchmarkB", 200, 0) + samples(7, "BenchmarkC", 50, 1), ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cur := mustReadBench(t, tc.cur)
			table, failures := compareBench(base, cur)
			switch {
			case tc.fail == "" && len(failures) != 0:
				t.Fatalf("unexpected failures: %v\n%s", failures, table)
			case tc.fail != "" && (len(failures) != 1 || !strings.HasPrefix(failures[0], tc.fail+":")):
				t.Fatalf("want exactly one failure naming %s, got %v\n%s", tc.fail, failures, table)
			}
			for _, b := range cur {
				if !strings.Contains(table, b.name) {
					t.Errorf("delta table does not list %s:\n%s", b.name, table)
				}
			}
		})
	}
}

func TestReadBench(t *testing.T) {
	t.Run("medians-odd-and-even", func(t *testing.T) {
		res := mustReadBench(t, samples(1, "BenchmarkOdd", 30, 3)+samples(1, "BenchmarkOdd", 10, 1)+samples(1, "BenchmarkOdd", 20, 2)+
			samples(1, "BenchmarkEven", 40, 4)+samples(1, "BenchmarkEven", 10, 1)+samples(1, "BenchmarkEven", 30, 3)+samples(1, "BenchmarkEven", 20, 2))
		if len(res) != 2 || res[0].name != "BenchmarkOdd" || res[1].name != "BenchmarkEven" {
			t.Fatalf("results %v, want BenchmarkOdd then BenchmarkEven", res)
		}
		if ns, al := median(res[0].ns), median(res[0].allocs); ns != 20 || al != 2 {
			t.Errorf("odd medians %v ns/op, %v allocs/op, want 20 and 2", ns, al)
		}
		if ns, al := median(res[1].ns), median(res[1].allocs); ns != 25 || al != 2.5 {
			t.Errorf("even medians %v ns/op, %v allocs/op, want 25 and 2.5", ns, al)
		}
	})
	t.Run("throughput-column", func(t *testing.T) {
		res := mustReadBench(t, "BenchmarkServiceBatchWarm \t    2283\t    520841 ns/op\t 201.53 MB/s\t  140092 B/op\t     368 allocs/op\n")
		if len(res) != 1 || res[0].ns[0] != 520841 || res[0].allocs[0] != 368 {
			t.Fatalf("parsed %+v", res[0])
		}
	})
	t.Run("non-result-lines-skipped", func(t *testing.T) {
		res := mustReadBench(t, "goos: linux\ngoarch: amd64\npkg: repro/internal/service\ncpu: Intel(R) Xeon(R)\n"+
			"BenchmarkLogs\n    bench_test.go:12: a benchmark's log line\n"+samples(2, "BenchmarkLogs-4", 10, 1)+
			"PASS\nok  \trepro/internal/service\t12.345s\n")
		if len(res) != 1 || res[0].name != "BenchmarkLogs-4" || len(res[0].ns) != 2 {
			t.Fatalf("parsed %+v, want BenchmarkLogs-4 with 2 samples", res[0])
		}
	})
	for _, tc := range []struct{ name, out, err string }{
		{"no-benchmem-refused", "BenchmarkA \t 1000\t 1234 ns/op\nPASS\n", "-benchmem"},
		{"no-results-refused", "goos: linux\npkg: repro\nPASS\nok  \trepro\t0.01s\n", "no benchmark results"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := readBench(strings.NewReader(tc.out)); err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("error %v, want one mentioning %q", err, tc.err)
			}
		})
	}
}

// TestCIBenchBaseline reads the baseline the CI benchmark gate names and
// checks that it can gate the CI run: every benchmark has at least 5
// samples, no more than the run's -count, and a positive median.
func TestCIBenchBaseline(t *testing.T) {
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	file := regexp.MustCompile(`socbench -benchcmp (\S+)`).FindSubmatch(ci)
	count := regexp.MustCompile(`-benchmem -count (\d+) `).FindSubmatch(ci)
	if file == nil || count == nil {
		t.Fatal("ci.yml has no go test -benchmem -count N step gated by socbench -benchcmp")
	}
	maxSamples, err := strconv.Atoi(string(count[1]))
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadBench("../../" + string(file[1]))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res {
		if n := len(b.ns); n < 5 || n > maxSamples || median(b.ns) <= 0 {
			t.Errorf("%s: %d samples, median %v ns/op; want 5 to %d samples and a positive median", b.name, n, median(b.ns), maxSamples)
		}
	}
}
