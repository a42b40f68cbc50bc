package pareto_test

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/pareto"
)

// TestAlphaWidthSaturates: an α so large that MinTime·α overflows an int64
// lets every width qualify, so the α-preferred width is the narrowest, 1,
// and a negative α, however large, lets only the highest Pareto width
// qualify, for every core of the four benchmark SOCs.
func TestAlphaWidthSaturates(t *testing.T) {
	for _, s := range bench.All() {
		for _, c := range s.Cores {
			ps, err := pareto.Compute(c, 64)
			if err != nil {
				t.Fatal(err)
			}
			if got := ps.AlphaWidth(math.MaxInt); got != 1 {
				t.Errorf("%s core %d: AlphaWidth(math.MaxInt) = %d, want 1", s.Name, c.ID, got)
			}
			for _, alpha := range []int{-1, math.MinInt / 2, math.MinInt + 1} {
				if got, want := ps.AlphaWidth(alpha), ps.MaxParetoWidth(); got != want {
					t.Errorf("%s core %d: AlphaWidth(%d) = %d, want w* = %d", s.Name, c.ID, alpha, got, want)
				}
			}
		}
	}
}
