package main

import (
	"strings"
	"testing"
)

func mkReport(pairs ...any) benchJSONReport {
	rep := benchJSONReport{Schema: "socbench-benchjson/v1"}
	for i := 0; i < len(pairs); i += 2 {
		rep.Benchmarks = append(rep.Benchmarks, benchJSONResult{
			Name:    pairs[i].(string),
			NsPerOp: int64(pairs[i+1].(int)),
		})
	}
	return rep
}

func TestCompareBenchReports(t *testing.T) {
	base := mkReport("A", 1000, "B", 2000, "C", 500)

	t.Run("within-threshold", func(t *testing.T) {
		table, failures := compareBenchReports(base, mkReport("A", 1200, "B", 1500, "C", 500), 25)
		if len(failures) != 0 {
			t.Fatalf("unexpected failures: %v", failures)
		}
		for _, name := range []string{"A", "B", "C"} {
			if !strings.Contains(table, name) {
				t.Errorf("delta table missing %s:\n%s", name, table)
			}
		}
	})

	t.Run("regression-fails", func(t *testing.T) {
		_, failures := compareBenchReports(base, mkReport("A", 1300, "B", 2000, "C", 500), 25)
		if len(failures) != 1 || !strings.Contains(failures[0], "A") {
			t.Fatalf("want exactly one failure for A (+30%%), got %v", failures)
		}
	})

	t.Run("boundary-is-allowed", func(t *testing.T) {
		// Exactly +25% is within the gate; it must not fail.
		_, failures := compareBenchReports(base, mkReport("A", 1250, "B", 2000, "C", 500), 25)
		if len(failures) != 0 {
			t.Fatalf("+25.0%% should pass a 25%% gate, got %v", failures)
		}
	})

	t.Run("missing-tracked-benchmark-fails", func(t *testing.T) {
		_, failures := compareBenchReports(base, mkReport("A", 1000, "C", 500), 25)
		if len(failures) != 1 || !strings.Contains(failures[0], "B") {
			t.Fatalf("want a failure for the vanished B, got %v", failures)
		}
	})

	t.Run("new-benchmark-is-informational", func(t *testing.T) {
		table, failures := compareBenchReports(base, mkReport("A", 1000, "B", 2000, "C", 500, "D", 42), 25)
		if len(failures) != 0 {
			t.Fatalf("a new benchmark must not fail the gate: %v", failures)
		}
		if !strings.Contains(table, "D") || !strings.Contains(table, "NEW") {
			t.Errorf("new benchmark D not surfaced in the table:\n%s", table)
		}
	})

	t.Run("improvements-pass", func(t *testing.T) {
		_, failures := compareBenchReports(base, mkReport("A", 100, "B", 200, "C", 50), 25)
		if len(failures) != 0 {
			t.Fatalf("improvements must pass: %v", failures)
		}
	})

	t.Run("allocation-columns-need-both-files", func(t *testing.T) {
		// A baseline written before allocations were recorded against a
		// report that records them: ns/op still gates, and there is no
		// allocation column to compare.
		cur := mkReport("A", 1300, "B", 2000, "C", 500)
		for i := range cur.Benchmarks {
			cur.Benchmarks[i].AllocsPerOp, cur.Benchmarks[i].BytesPerOp = 7, 4096
		}
		table, failures := compareBenchReports(base, cur, 25)
		if len(failures) != 1 || !strings.Contains(failures[0], "A") {
			t.Fatalf("want exactly one ns/op failure for A (+30%%), got %v", failures)
		}
		if strings.Contains(table, "allocs") || strings.Contains(table, "4096") {
			t.Errorf("allocation columns shown with a baseline that has none:\n%s", table)
		}
		// Both files carry them: the columns appear and never gate.
		withAllocs := mkReport("A", 1000, "B", 2000, "C", 500)
		for i := range withAllocs.Benchmarks {
			withAllocs.Benchmarks[i].AllocsPerOp, withAllocs.Benchmarks[i].BytesPerOp = 1, 64
		}
		table, failures = compareBenchReports(withAllocs, cur, 25)
		if len(failures) != 1 || !strings.Contains(failures[0], "A") {
			t.Fatalf("want exactly one ns/op failure for A (+30%%), got %v", failures)
		}
		if !strings.Contains(table, "base allocs") || !strings.Contains(table, "4096") {
			t.Errorf("allocation columns missing when both files carry them:\n%s", table)
		}
	})
}

func TestLoadBenchReportBaseline(t *testing.T) {
	// The committed baseline the CI gate compares against must stay
	// loadable and non-empty.
	rep, err := loadBenchReport("../../BENCH_3.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		t.Fatal("BENCH_3.json tracks no benchmarks")
	}
	for _, b := range rep.Benchmarks {
		if b.NsPerOp <= 0 {
			t.Errorf("%s: non-positive ns/op %d", b.Name, b.NsPerOp)
		}
	}
}
