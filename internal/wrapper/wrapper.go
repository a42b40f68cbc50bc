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
// chains, and O(n) without the heap when n <= w), and the wrapper-cell
// water-filling is evaluated in closed form from the chain loads sorted
// once (O(w log w), independent of the cell count — unit items fill to a
// water level, so the final distribution never needs to be simulated cell
// by cell). Cores with thousands of I/O terminals cost the same as cores
// with none. ScanLengths, which Pareto staircases are built from, designs
// a core at every width 1..W from one sort of its scan chains and one
// scratch set, with no chain lists: O(n log n + W·(n log W + W log W))
// time and a fixed number of allocations per core.
package wrapper

import (
	"cmp"
	"fmt"
	"slices"

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
	k := newDesigner(c, width)
	d := &Design{
		CoreID:   c.ID,
		Width:    width,
		Chains:   make([]Chain, width),
		Patterns: c.Test.Patterns,
	}
	d.ScanInMax, d.ScanOutMax = k.design(width)
	for p, sc := range k.order {
		ch := &d.Chains[k.where[p]]
		ch.ScanChains = append(ch.ScanChains, sc)
	}
	// Each fill hands its leftover cells to the lowest-indexed chains at
	// its level, so the chains take their shares in index order.
	bidir, in, out := k.bidir.extra, k.in.extra, k.out.extra
	for j := range d.Chains {
		ch := &d.Chains[j]
		ch.ScanBits = k.bits[j]
		ch.BidirCells = k.bidir.share(ch.ScanBits, &bidir)
		ch.InputCells = k.in.share(ch.ScanIn(), &in)
		ch.OutputCells = k.out.share(ch.ScanOut(), &out)
	}
	return d, nil
}

// ScanLengths designs core c's wrapper at every width 1..maxWidth, in
// increasing order, and calls yield with each width's longest scan-in and
// scan-out, DesignWrapper(c, w)'s ScanInMax and ScanOutMax. It sorts the
// scan chains once, reuses one scratch set across the widths and builds no
// chain lists, so its allocations do not grow with maxWidth.
func ScanLengths(c *soc.Core, maxWidth int, yield func(w, si, so int)) error {
	if c == nil {
		return fmt.Errorf("wrapper: nil core")
	}
	if maxWidth < 1 {
		return fmt.Errorf("wrapper: core %d: non-positive width %d", c.ID, maxWidth)
	}
	k := newDesigner(c, maxWidth)
	for w := 1; w <= maxWidth; w++ {
		si, so := k.design(w)
		yield(w, si, so)
	}
	return nil
}

// designer runs Design_wrapper for one core at any width up to the one it
// was made for. It sorts the core's scan chains once and keeps one scratch
// set that every width reuses: the BFD min-heap, the scan bits of each
// wrapper chain, and the ascending chain loads the water-filling reads.
type designer struct {
	core  *soc.Core
	order []int // scan chain indices, longest first, lowest index on ties
	pos   int   // scan chains of positive length, a prefix of order
	heap  loadHeap
	// After design(w): wrapper chain where[p] holds scan chain order[p],
	// bits[j] is wrapper chain j's scan length, and bidir, in and out are
	// the three cell fills.
	where, bits, asc []int
	bidir, in, out   fill
}

func newDesigner(c *soc.Core, maxWidth int) designer {
	n := len(c.ScanChains)
	buf := make([]int, 2*n+2*maxWidth)
	k := designer{
		core:  c,
		order: buf[:n],
		where: buf[n : 2*n],
		bits:  buf[2*n : 2*n+maxWidth],
		asc:   buf[2*n+maxWidth:],
	}
	for i := range k.order {
		k.order[i] = i
	}
	lens := c.ScanChains
	slices.SortFunc(k.order, func(a, b int) int {
		if lens[a] != lens[b] {
			return cmp.Compare(lens[b], lens[a])
		}
		return cmp.Compare(a, b) // deterministic tie-break
	})
	for k.pos < n && lens[k.order[k.pos]] > 0 {
		k.pos++
	}
	return k
}

// design runs Design_wrapper at width w, 1 <= w <= the designer's width,
// and returns the design's longest scan-in and scan-out.
func (k *designer) design(w int) (si, so int) {
	c := k.core
	bits, asc := k.bits[:w], k.asc[:w]
	clear(bits)
	if len(k.order) <= w {
		// No more scan chains than wrapper chains. Wrapper chain j takes
		// the j-th longest scan chain while lengths are positive, and
		// chain pos, the first one left at load 0, takes all the rest:
		// exactly the heap's choices. So bits is descending but for chain
		// pos, which holds the non-positive lengths' sum; its ascending
		// copy is bits reversed with chain pos moved to the front.
		for p, sc := range k.order {
			j := min(p, k.pos)
			k.where[p] = j
			bits[j] += c.ScanChains[sc]
		}
		for j := range asc {
			asc[j] = bits[w-1-j]
		}
		if k.pos < w {
			asc[0], asc[w-1-k.pos] = asc[w-1-k.pos], asc[0]
		}
	} else {
		// Scan chains, longest first, onto the least-loaded wrapper chain.
		// The chains live in a min-heap keyed by (load, chain index), which
		// reproduces the linear scan's lowest-index tie-break. All loads
		// start at 0 in index order: already a valid min-heap.
		if k.heap == nil {
			k.heap = make(loadHeap, min(len(k.bits), len(k.order)-1))
		}
		h := k.heap[:w]
		for j := range h {
			h[j].load, h[j].idx = 0, j
		}
		for p, sc := range k.order {
			j := h[0].idx
			k.where[p] = j
			bits[j] += c.ScanChains[sc]
			h[0].load = bits[j]
			h.siftDown(0)
		}
		copy(asc, bits)
		slices.Sort(asc)
	}

	// Wrapper cells by water-filling. Bidirs load both sides, so they fill
	// against max(si, so), which is still the scan bits alone. Inputs then
	// fill against si and outputs against so, and both of those start at
	// scan bits + bidir cells: the bidir fill's result serves both.
	k.bidir = waterFill(asc, c.Bidirs)
	k.bidir.raise(asc)
	k.in = waterFill(asc, c.Inputs)
	k.out = waterFill(asc, c.Outputs)
	// The maxima start at 0, as Validate's do, should every load be
	// negative.
	return max(k.in.max(asc), 0), max(k.out.max(asc), 0)
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

// fill is where exact water-filling of unit cells over a set of chain
// loads ends: conceptually each cell lands on the chain whose load is then
// smallest, lowest index on ties, which minimizes the maximum load. Because
// every cell raises its chain's load by exactly one, the greedy endpoint
// has a closed form: the k least-loaded chains end at level, the first
// extra of them by index (extra < k) take one cell more — exactly the
// greedy tie-break order — and the other chains take none.
type fill struct{ level, k, extra int }

// waterFill returns the fill of n cells over the loads asc, given in
// ascending order, in O(k) time, independent of n.
func waterFill(asc []int, n int) fill {
	n = max(n, 0)
	// Raise the water level plateau by plateau while whole levels fit.
	f := fill{level: asc[0], k: 1}
	used := 0 // cells consumed bringing the k lowest chains up to level
	for f.k < len(asc) {
		need := f.k * (asc[f.k] - f.level)
		if used+need > n {
			break
		}
		used += need
		f.level = asc[f.k]
		f.k++
	}
	rem := n - used
	f.level += rem / f.k
	f.extra = rem % f.k
	return f
}

// share returns the cells the fill adds to a chain of the given load.
// extra counts the leftover cells not yet handed out: callers start it at
// f.extra and visit the chains in index order.
func (f fill) share(load int, extra *int) int {
	if load > f.level {
		return 0
	}
	n := f.level - load
	if *extra > 0 {
		n++
		*extra--
	}
	return n
}

// max returns the largest load after the fill, given asc, the loads before
// it in ascending order. A chain above the level keeps its load, which is
// at least level+1.
func (f fill) max(asc []int) int {
	if f.k < len(asc) {
		return asc[len(asc)-1]
	}
	if f.extra > 0 {
		return f.level + 1
	}
	return f.level
}

// raise turns asc, the loads before the fill in ascending order, into the
// loads after it, still in ascending order.
func (f fill) raise(asc []int) {
	for i := range f.k {
		asc[i] = f.level
	}
	for i := f.k - f.extra; i < f.k; i++ {
		asc[i]++
	}
}
