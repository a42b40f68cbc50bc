package wrapper

import (
	"fmt"
	"sort"

	"repro/internal/soc"
)

// designWrapperRef is the original, straightforwardly-greedy Design_wrapper
// implementation: a linear min-scan for the BFD partition and cell-by-cell
// water-filling (O(n·w) in the wrapper cell count). It is the
// differential-testing oracle for DesignWrapper, which must produce
// byte-identical designs, and is compiled into tests only.
func designWrapperRef(c *soc.Core, width int) (*Design, error) {
	if c == nil {
		return nil, fmt.Errorf("wrapper: nil core")
	}
	if width < 1 {
		return nil, fmt.Errorf("wrapper: core %d: non-positive width %d", c.ID, width)
	}
	d := &Design{
		CoreID:   c.ID,
		Width:    width,
		Chains:   make([]Chain, width),
		Patterns: c.Test.Patterns,
	}

	// Step 1: scan chains, longest first, onto the least-loaded wrapper chain.
	order := make([]int, len(c.ScanChains))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := c.ScanChains[order[a]], c.ScanChains[order[b]]
		if la != lb {
			return la > lb
		}
		return order[a] < order[b] // deterministic tie-break
	})
	for _, sc := range order {
		best := 0
		for j := 1; j < width; j++ {
			if d.Chains[j].ScanBits < d.Chains[best].ScanBits {
				best = j
			}
		}
		d.Chains[best].ScanChains = append(d.Chains[best].ScanChains, sc)
		d.Chains[best].ScanBits += c.ScanChains[sc]
	}

	// Step 2: wrapper cells by unit-by-unit water-filling.
	fillRef(d.Chains, c.Bidirs, func(ch *Chain) int {
		si, so := ch.ScanIn(), ch.ScanOut()
		if si > so {
			return si
		}
		return so
	}, func(ch *Chain) { ch.BidirCells++ })
	fillRef(d.Chains, c.Inputs, func(ch *Chain) int { return ch.ScanIn() }, func(ch *Chain) { ch.InputCells++ })
	fillRef(d.Chains, c.Outputs, func(ch *Chain) int { return ch.ScanOut() }, func(ch *Chain) { ch.OutputCells++ })

	for j := range d.Chains {
		if si := d.Chains[j].ScanIn(); si > d.ScanInMax {
			d.ScanInMax = si
		}
		if so := d.Chains[j].ScanOut(); so > d.ScanOutMax {
			d.ScanOutMax = so
		}
	}
	return d, nil
}

// fillRef distributes n unit cells one at a time, always onto the chain
// whose load is currently smallest (lowest index on ties).
func fillRef(chains []Chain, n int, loadOf func(*Chain) int, add func(*Chain)) {
	for ; n > 0; n-- {
		best := 0
		bestLoad := loadOf(&chains[0])
		for j := 1; j < len(chains); j++ {
			if l := loadOf(&chains[j]); l < bestLoad {
				best, bestLoad = j, l
			}
		}
		add(&chains[best])
	}
}
