package pareto_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/pareto"
)

// TestCappedSharesPrefix: a capped view of a d695 staircase costs one
// allocation, the Set itself. Its Points are the parent's prefix, sharing
// the parent's backing array, and capped at their length so an append to
// the view copies instead of writing into the parent. Its per-width table,
// scan lengths included, is the first 16 rows of the parent's.
func TestCappedSharesPrefix(t *testing.T) {
	var full *pareto.Set
	for _, c := range bench.D695().Cores {
		ps, err := pareto.Compute(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		if full == nil || len(ps.Points) > len(full.Points) {
			full = ps
		}
	}
	view, err := full.Capped(16)
	if err != nil {
		t.Fatal(err)
	}
	n := len(view.Points)
	if n == 0 || n >= len(full.Points) {
		t.Fatalf("Capped(16) kept %d of %d points; want a strict, non-empty prefix", n, len(full.Points))
	}
	if &view.Points[0] != &full.Points[0] {
		t.Fatal("capped Points do not share the parent's backing array")
	}
	next := full.Points[n]
	_ = append(view.Points, pareto.Point{Width: -1})
	if cap(view.Points) != n || full.Points[n] != next {
		t.Fatalf("append to the view wrote into the parent: cap %d, parent point %+v", cap(view.Points), full.Points[n])
	}
	if tab := pareto.Table(view); len(tab) != 16 || &tab[0] != &pareto.Table(full)[0] {
		t.Fatalf("capped table has %d rows; want the parent's first 16 rows, sharing its storage", len(tab))
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = full.Capped(16) }); allocs > 1 {
		t.Fatalf("Capped(16) made %.0f allocations, want at most 1", allocs)
	}
}
