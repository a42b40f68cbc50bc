// Package lb computes lower bounds on SOC testing time for a given total
// TAM width, as used in Table 1 of the DAC 2002 paper:
//
//	LB(W) = max( ⌈A / W⌉ , max_i T_i(w_max) )
//
// where A = Σ_i min_w w·T_i(w) is the total minimum rectangle area over all
// cores (no schedule can pack less area into the W-wire bin), and the second
// term is the bottleneck core: no core can finish faster than its testing
// time at the per-core width cap.
package lb

import (
	"fmt"

	"repro/internal/pareto"
	"repro/internal/soc"
)

// Bound holds a lower bound and its two components.
type Bound struct {
	// TAMWidth is the W the bound was computed for.
	TAMWidth int
	// AreaBound is ⌈A/W⌉.
	AreaBound int64
	// BottleneckBound is max_i T_i(min(W, maxWidth)).
	BottleneckBound int64
	// MinArea is A itself (wire-cycles).
	MinArea int64
}

// Value returns the lower bound: the larger of the two components.
func (b Bound) Value() int64 {
	if b.AreaBound > b.BottleneckBound {
		return b.AreaBound
	}
	return b.BottleneckBound
}

// Compute returns the lower bound for the SOC at TAM width w, with per-core
// widths capped at maxWidth (the paper's 64) and additionally at w.
func Compute(s *soc.SOC, w, maxWidth int) (Bound, error) {
	if w < 1 {
		return Bound{}, fmt.Errorf("lb: non-positive TAM width %d", w)
	}
	if maxWidth < 1 {
		return Bound{}, fmt.Errorf("lb: non-positive max width %d", maxWidth)
	}
	sets, err := pareto.ComputeAll(s, min(w, maxWidth))
	if err != nil {
		return Bound{}, err
	}
	return FromSets(sets, w, maxWidth)
}

// FromSets computes the same bound as Compute from precomputed Pareto sets
// indexed by core ID (e.g. a sched.Optimizer's cache), without redesigning
// a single wrapper. Every set must have been computed with a width cap of
// at least min(w, maxWidth); smaller sets are rejected rather than
// silently loosening the bound.
func FromSets(sets map[int]*pareto.Set, w, maxWidth int) (Bound, error) {
	if w < 1 {
		return Bound{}, fmt.Errorf("lb: non-positive TAM width %d", w)
	}
	if maxWidth < 1 {
		return Bound{}, fmt.Errorf("lb: non-positive max width %d", maxWidth)
	}
	cap := maxWidth
	if cap > w {
		cap = w
	}
	var area, bottleneck int64
	for id, ps := range sets {
		if ps.MaxWidth < cap {
			return Bound{}, fmt.Errorf("lb: core %d Pareto set capped at %d, need %d", id, ps.MaxWidth, cap)
		}
		c, err := ps.Capped(cap)
		if err != nil {
			return Bound{}, err
		}
		area += c.MinArea()
		if t := c.MinTime(); t > bottleneck {
			bottleneck = t
		}
	}
	return Bound{
		TAMWidth:        w,
		AreaBound:       ceilDiv(area, int64(w)),
		BottleneckBound: bottleneck,
		MinArea:         area,
	}, nil
}

func ceilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}
