// Package wrapper implements test wrapper design for embedded cores: the
// Design_wrapper algorithm of Iyengar/Chakrabarty/Marinissen (JETTA 2002),
// based on a Best-Fit-Decreasing partition of internal scan chains and
// wrapper I/O cells into a given number of wrapper scan chains, and the
// resulting core test application time model used throughout the DAC 2002
// framework.
//
// The implementation is output-identical to the paper's greedy recipe but
// asymptotically cheaper: the BFD scan-chain partition keeps the wrapper
// chains in a min-heap (O(n log w) for n scan chains over w wrapper
// chains), and the wrapper-cell water-filling is evaluated in closed form
// (O(w log w), independent of the cell count — unit items fill to a water
// level, so the final distribution never needs to be simulated cell by
// cell). Cores with thousands of I/O terminals cost the same as cores
// with none.
package wrapper

import (
	"fmt"
	"sort"

	"repro/internal/soc"
)

// Chain is one wrapper scan chain: a serial path made of wrapper input
// cells, zero or more internal scan chains, and wrapper output cells,
// accessed by one TAM wire.
type Chain struct {
	// ScanChains are indices into the core's ScanChains slice, in the
	// order they are stitched into this wrapper chain.
	ScanChains []int
	// ScanBits is the total internal scan length on this chain.
	ScanBits int
	// InputCells, OutputCells, BidirCells count the wrapper cells placed
	// on this chain.
	InputCells, OutputCells, BidirCells int
}

// ScanIn returns the chain's scan-in length: cells that must be loaded to
// apply a pattern (input and bidir wrapper cells plus internal scan bits).
func (ch *Chain) ScanIn() int {
	return ch.InputCells + ch.BidirCells + ch.ScanBits
}

// ScanOut returns the chain's scan-out length: cells that must be unloaded
// to observe a pattern (internal scan bits plus output and bidir cells).
func (ch *Chain) ScanOut() int {
	return ch.ScanBits + ch.OutputCells + ch.BidirCells
}

// Design is a complete wrapper configuration for one core at one TAM width.
type Design struct {
	// CoreID identifies the wrapped core.
	CoreID int
	// Width is the TAM width the wrapper was designed for (= number of
	// wrapper chains, including possibly empty ones).
	Width int
	// Chains holds the wrapper chains. len(Chains) == Width, but trailing
	// chains may be empty when the core cannot use the full width.
	Chains []Chain
	// ScanInMax and ScanOutMax are the longest scan-in and scan-out
	// lengths over all chains (the paper's s_i and s_o).
	ScanInMax, ScanOutMax int
	// Patterns is the core's pattern count, copied for convenience.
	Patterns int
}

// TestTime returns the core test application time in cycles:
//
//	T = (1 + max(si, so))·p + min(si, so)
//
// Scan-in of the next pattern overlaps scan-out of the previous one, so the
// longer of the two dominates each of the p pattern slots (plus one capture
// cycle each), and one final scan-out (or initial scan-in) of the shorter
// side remains exposed.
func (d *Design) TestTime() int64 {
	return TestTime(d.ScanInMax, d.ScanOutMax, d.Patterns)
}

// TestTime computes (1 + max(si,so))·p + min(si,so) without a Design.
func TestTime(si, so, patterns int) int64 {
	mx, mn := si, so
	if mx < mn {
		mx, mn = mn, mx
	}
	return int64(1+mx)*int64(patterns) + int64(mn)
}

// PreemptionPenalty returns the extra cycles incurred each time a test is
// preempted and later resumed: the captured state must be scanned out and
// restored, costing one extra scan-in plus one extra scan-out at the
// design's wrapper configuration (the paper's s_i + s_o).
func (d *Design) PreemptionPenalty() int64 {
	return int64(d.ScanInMax) + int64(d.ScanOutMax)
}

// CellCount returns the total number of wrapper cells in the design
// (a proxy for wrapper hardware cost).
func (d *Design) CellCount() int {
	n := 0
	for i := range d.Chains {
		ch := &d.Chains[i]
		n += ch.InputCells + ch.OutputCells + ch.BidirCells
	}
	return n
}

// Validate checks internal consistency of the design against its core:
// every internal scan chain used exactly once, cell counts matching the
// core's terminals, and si/so maxima consistent with the chains.
func (d *Design) Validate(c *soc.Core) error {
	if d.Width < 1 {
		return fmt.Errorf("wrapper: core %d design has width %d", d.CoreID, d.Width)
	}
	if len(d.Chains) != d.Width {
		return fmt.Errorf("wrapper: core %d design has %d chains, want %d", d.CoreID, len(d.Chains), d.Width)
	}
	seen := make([]bool, len(c.ScanChains))
	in, out, bid := 0, 0, 0
	si, so := 0, 0
	for j := range d.Chains {
		ch := &d.Chains[j]
		bits := 0
		for _, sc := range ch.ScanChains {
			if sc < 0 || sc >= len(c.ScanChains) {
				return fmt.Errorf("wrapper: core %d chain %d references scan chain %d (have %d)", d.CoreID, j, sc, len(c.ScanChains))
			}
			if seen[sc] {
				return fmt.Errorf("wrapper: core %d scan chain %d assigned twice", d.CoreID, sc)
			}
			seen[sc] = true
			bits += c.ScanChains[sc]
		}
		if bits != ch.ScanBits {
			return fmt.Errorf("wrapper: core %d chain %d has ScanBits %d, computed %d", d.CoreID, j, ch.ScanBits, bits)
		}
		in += ch.InputCells
		out += ch.OutputCells
		bid += ch.BidirCells
		if ch.ScanIn() > si {
			si = ch.ScanIn()
		}
		if ch.ScanOut() > so {
			so = ch.ScanOut()
		}
	}
	for sc, ok := range seen {
		if !ok {
			return fmt.Errorf("wrapper: core %d scan chain %d unassigned", d.CoreID, sc)
		}
	}
	if in != c.Inputs || out != c.Outputs || bid != c.Bidirs {
		return fmt.Errorf("wrapper: core %d cell counts in/out/bidir = %d/%d/%d, want %d/%d/%d",
			d.CoreID, in, out, bid, c.Inputs, c.Outputs, c.Bidirs)
	}
	if si != d.ScanInMax || so != d.ScanOutMax {
		return fmt.Errorf("wrapper: core %d si/so = %d/%d, computed %d/%d", d.CoreID, d.ScanInMax, d.ScanOutMax, si, so)
	}
	if d.Patterns != c.Test.Patterns {
		return fmt.Errorf("wrapper: core %d patterns %d, want %d", d.CoreID, d.Patterns, c.Test.Patterns)
	}
	return nil
}

// DesignWrapper builds a wrapper for core c using at most width TAM wires,
// following the paper's Design_wrapper recipe:
//
//  1. Partition the internal scan chains over the wrapper chains with a
//     Best-Fit-Decreasing heuristic (longest chain first, into the wrapper
//     chain with the least scan load) to minimize the longest wrapper chain.
//  2. Distribute bidir cells (they load both scan-in and scan-out), then
//     input cells (scan-in only), then output cells (scan-out only), each by
//     exact water-filling over the current chain loads.
//
// width must be >= 1. The returned design always has exactly width chains;
// unused chains are empty and correspond to TAM wires the core cannot
// exploit (callers normally avoid them via Pareto-optimal widths).
func DesignWrapper(c *soc.Core, width int) (*Design, error) {
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

	// Step 1: scan chains, longest first, onto the least-loaded wrapper
	// chain. The chains live in a min-heap keyed by (ScanBits, chain
	// index), which reproduces the linear scan's lowest-index tie-break.
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
	// All loads start at 0 in index order: already a valid min-heap.
	h := make(loadHeap, width)
	for j := range h {
		h[j].idx = j
	}
	for _, sc := range order {
		ch := &d.Chains[h[0].idx]
		ch.ScanChains = append(ch.ScanChains, sc)
		ch.ScanBits += c.ScanChains[sc]
		h[0].load = ch.ScanBits
		h.siftDown(0)
	}

	// Step 2: wrapper cells by water-filling. Bidirs affect both sides, so
	// fill them against the max(si,so) load; inputs against si; outputs
	// against so.
	fill(d.Chains, c.Bidirs, func(ch *Chain) int {
		si, so := ch.ScanIn(), ch.ScanOut()
		if si > so {
			return si
		}
		return so
	}, func(ch *Chain, n int) { ch.BidirCells += n })
	fill(d.Chains, c.Inputs, func(ch *Chain) int { return ch.ScanIn() }, func(ch *Chain, n int) { ch.InputCells += n })
	fill(d.Chains, c.Outputs, func(ch *Chain) int { return ch.ScanOut() }, func(ch *Chain, n int) { ch.OutputCells += n })

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

// loadHeap is a binary min-heap over (load, chain index), ordered by load
// then index. The index tie-break makes heap selection identical to a
// left-to-right linear scan for the minimum.
type loadHeap []struct{ load, idx int }

func (h loadHeap) less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].idx < h[j].idx
}

func (h loadHeap) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < len(h) && h.less(l, min) {
			min = l
		}
		if r < len(h) && h.less(r, min) {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// fill distributes n unit cells over the chains by exact water-filling:
// conceptually each cell lands on the chain whose load (as reported by
// loadOf) is currently smallest, lowest index on ties, which minimizes the
// maximum load. Because every cell raises its chain's load by exactly one,
// the greedy endpoint has a closed form and is computed directly in
// O(w log w), independent of n: loads below the final water level L are
// topped up to L, and the r leftover cells (r < number of chains at L) go
// one each to the lowest-indexed chains at L — exactly the greedy
// tie-break order. add must apply count cells at once.
func fill(chains []Chain, n int, loadOf func(*Chain) int, add func(*Chain, int)) {
	if n <= 0 {
		return
	}
	w := len(chains)
	loads := make([]int, w)
	for j := range chains {
		loads[j] = loadOf(&chains[j])
	}
	sorted := append([]int(nil), loads...)
	sort.Ints(sorted)

	// Raise the water level plateau by plateau while whole levels fit.
	level := sorted[0]
	used := 0 // cells consumed bringing the k lowest chains up to level
	k := 1    // number of chains with load <= level
	for k < w {
		need := k * (sorted[k] - level)
		if used+need > n {
			break
		}
		used += need
		level = sorted[k]
		k++
	}
	rem := n - used
	level += rem / k
	r := rem % k // leftover cells for the first r active chains by index

	for j := range chains {
		addN := 0
		if loads[j] <= level {
			addN = level - loads[j]
			if r > 0 {
				addN++
				r--
			}
		}
		if addN > 0 {
			add(&chains[j], addN)
		}
	}
}
