// Package rect is the TAM wire allocator behind sched's Optimizer.Assemble.
// In the DAC 2002 framework core tests are rectangles (height = TAM width,
// width = testing time) packed into a bin of fixed height (the SOC TAM
// width W) and unbounded width (time). Rectangles may be split vertically
// (a core's wires need not be contiguous: TAM wires fork and merge) and —
// for preemptive schedules — horizontally into same-height pieces.
//
// A Bin tracks occupancy at wire granularity and assigns concrete wire IDs
// to every placement. It keeps no record of the pieces it hands out: the
// schedule's assignments are the only placement record, and
// sched.CheckInvariants validates them.
package rect

import (
	"fmt"
	"sort"
)

// Piece is one placed fragment of a core's rectangle: the core occupies
// |Wires| TAM wires from Start (inclusive) to End (exclusive).
type Piece struct {
	// CoreID identifies the test the piece belongs to.
	CoreID int
	// Start and End bound the piece in cycles, Start < End.
	Start, End int64
	// Wires lists the concrete TAM wire indices (0-based, < bin height)
	// carrying the piece. They need not be contiguous (fork-and-merge).
	Wires []int
}

// Width returns the piece's TAM width.
func (p *Piece) Width() int { return len(p.Wires) }

// Duration returns the piece's length in cycles.
func (p *Piece) Duration() int64 { return p.End - p.Start }

// Bin is a packing bin of fixed height (total TAM width) and unbounded
// width (time). The zero value is unusable; use NewBin.
type Bin struct {
	height int
	// busy[w] holds, per wire, the placed intervals sorted by start.
	busy [][]ival
}

type ival struct{ start, end int64 }

// NewBin returns a bin of the given height (total SOC TAM width W).
func NewBin(height int) (*Bin, error) {
	if height < 1 {
		return nil, fmt.Errorf("rect: non-positive bin height %d", height)
	}
	return &Bin{height: height, busy: make([][]ival, height)}, nil
}

// wireFree reports whether wire w has no interval overlapping [start, end).
// busy[w] holds disjoint intervals sorted by start (so also by end): binary
// search for the first interval ending after start, which is the only
// candidate overlap.
func (b *Bin) wireFree(w int, start, end int64) bool {
	ivs := b.busy[w]
	lo, hi := 0, len(ivs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ivs[mid].end <= start {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo == len(ivs) || ivs[lo].start >= end
}

// PlacePreferred occupies width wires during [start, end) for coreID and
// returns the placed piece, its wires in ascending order. Wires listed in
// prefer are chosen first when free, so a test that is preempted and
// resumed keeps its TAM wiring wherever possible; the rest are the
// lowest-numbered free wires (first-fit; the chosen set may be
// non-contiguous, which is exactly the paper's fork-and-merge). It fails
// when fewer than width wires are free.
func (b *Bin) PlacePreferred(coreID int, width int, start, end int64, prefer []int) (Piece, error) {
	if width < 1 {
		return Piece{}, fmt.Errorf("rect: core %d: non-positive width %d", coreID, width)
	}
	if start < 0 || end <= start {
		return Piece{}, fmt.Errorf("rect: core %d: bad interval [%d,%d)", coreID, start, end)
	}
	wires := make([]int, 0, width)
	taken := func(w int) bool {
		for _, t := range wires {
			if t == w {
				return true
			}
		}
		return false
	}
	for _, w := range prefer {
		if len(wires) == width {
			break
		}
		if w >= 0 && w < b.height && !taken(w) && b.wireFree(w, start, end) {
			wires = append(wires, w)
		}
	}
	for w := 0; w < b.height && len(wires) < width; w++ {
		if !taken(w) && b.wireFree(w, start, end) {
			wires = append(wires, w)
		}
	}
	if len(wires) < width {
		return Piece{}, fmt.Errorf("rect: core %d: need %d wires in [%d,%d), only %d free",
			coreID, width, start, end, len(wires))
	}
	sort.Ints(wires)
	for _, w := range wires {
		// Insert keeping busy[w] sorted by start. Placements arrive in
		// near-ascending start order (sched's Assemble processes
		// fragments globally sorted), so this is O(1) amortized where a
		// re-sort per placement was O(k log k).
		ivs := append(b.busy[w], ival{start, end})
		for i := len(ivs) - 1; i > 0 && ivs[i-1].start > ivs[i].start; i-- {
			ivs[i-1], ivs[i] = ivs[i], ivs[i-1]
		}
		b.busy[w] = ivs
	}
	return Piece{CoreID: coreID, Start: start, End: end, Wires: wires}, nil
}
