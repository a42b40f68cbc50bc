package repro_test

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro"
)

// TestPlannerScheduleBatch asserts library/wire parity of the batch
// entrypoint: every item's schedule equals the one-at-a-time API's answer
// for the same params and mode, one failing item fails alone, and results
// come back in item order for any worker count.
func TestPlannerScheduleBatch(t *testing.T) {
	s := repro.BenchmarkSOC("demo8")
	p, err := repro.NewPlanner(s)
	if err != nil {
		t.Fatal(err)
	}

	items := []repro.BatchItem{
		{Params: repro.Options{TAMWidth: 16}},
		{Params: repro.Options{TAMWidth: 16}, Best: true},
		{Params: repro.Options{}}, // invalid: TAMWidth required
		{Params: repro.Options{TAMWidth: 24, Backend: "rectpack"}},
	}
	wantSingle, err := p.Schedule(repro.Options{TAMWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	wantBest, err := p.ScheduleBest(repro.Options{TAMWidth: 16})
	if err != nil {
		t.Fatal(err)
	}
	wantRect, err := p.Schedule(repro.Options{TAMWidth: 24, Backend: "rectpack"})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		results := p.ScheduleBatch(context.Background(), items, workers)
		if len(results) != len(items) {
			t.Fatalf("workers=%d: %d results for %d items", workers, len(results), len(items))
		}
		for i, want := range []*repro.TestSchedule{wantSingle, wantBest, nil, wantRect} {
			res := results[i]
			if want == nil {
				if res.Err == nil {
					t.Fatalf("workers=%d item %d: invalid item did not fail", workers, i)
				}
				continue
			}
			if res.Err != nil {
				t.Fatalf("workers=%d item %d: %v", workers, i, res.Err)
			}
			if !reflect.DeepEqual(res.Schedule, want) {
				t.Fatalf("workers=%d item %d: batch schedule differs from the one-at-a-time API", workers, i)
			}
		}
	}
}

// TestPlannerScheduleBatchDedup asserts intra-batch deduplication:
// items whose params canonicalize to the same key (MaxWidth's default
// folded, Workers excluded) share one *Schedule, computed once, and items
// that echo different params do not.
func TestPlannerScheduleBatchDedup(t *testing.T) {
	s := repro.BenchmarkSOC("demo8")
	p, err := repro.NewPlanner(s)
	if err != nil {
		t.Fatal(err)
	}
	items := []repro.BatchItem{
		{Params: repro.Options{TAMWidth: 16}},
		{Params: repro.Options{TAMWidth: 16, Workers: 3}},            // Workers is non-semantic
		{Params: repro.Options{TAMWidth: 16, MaxWidth: 64}},          // explicit default
		{Params: repro.Options{TAMWidth: 16, Backend: "classic"}},    // echoed as sent
		{Params: repro.Options{TAMWidth: 16, DisableWidening: true}}, // genuinely different
	}
	results := p.ScheduleBatch(context.Background(), items, 2)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
	}
	first := results[0].Schedule
	for i := 1; i <= 2; i++ {
		if results[i].Schedule != first {
			t.Fatalf("item %d did not share the deduplicated schedule pointer", i)
		}
	}
	for i := 3; i <= 4; i++ {
		if results[i].Schedule == first {
			t.Fatalf("item %d, whose schedule differs, was wrongly deduplicated", i)
		}
	}
	if got := results[3].Schedule.Params.Backend; got != "classic" {
		t.Fatalf("named-backend item echoes backend %q, want \"classic\"", got)
	}
}

// TestPlannerScheduleBatchCancel asserts a cancelled context fails the
// remaining items with the context error instead of wedging or crashing.
func TestPlannerScheduleBatchCancel(t *testing.T) {
	s := repro.BenchmarkSOC("demo8")
	p, err := repro.NewPlanner(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := make([]repro.BatchItem, 8)
	for i := range items {
		// Distinct widths defeat dedup so every item runs its own check.
		items[i] = repro.BatchItem{Params: repro.Options{TAMWidth: 8 + i}}
	}
	results := p.ScheduleBatch(ctx, items, 2)
	for i, res := range results {
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("item %d: err = %v, want context.Canceled", i, res.Err)
		}
	}
}
