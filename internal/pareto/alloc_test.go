package pareto_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/pareto"
)

// TestComputeAllocations: building a core's staircase allocates a fixed
// number of times per core, not per width. On p93791like's 93-chain core 6
// at widths 1..128, Compute makes the Set, its table, the designer's two
// scratch buffers and the Points slice's growth: at most 16 allocations.
// Designing a wrapper per width made 12,086.
func TestComputeAllocations(t *testing.T) {
	c := bench.P93791Like().Core(6)
	if n := len(c.ScanChains); n != 93 {
		t.Fatalf("p93791like core 6 has %d scan chains, want 93", n)
	}
	for _, maxWidth := range []int{16, 64, 128} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := pareto.Compute(c, maxWidth); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("maxWidth %d: %.0f allocations", maxWidth, allocs)
		if allocs > 16 {
			t.Fatalf("Compute(core 6, %d) made %.0f allocations, want at most 16", maxWidth, allocs)
		}
	}
}
