// Package rect provides the rectangle-packing substrate used by the DAC
// 2002 scheduling framework: core tests are rectangles (height = TAM width,
// width = testing time) packed into a bin of fixed height (the SOC TAM
// width W) and unbounded width (time). Rectangles may be split vertically
// (a core's wires need not be contiguous: TAM wires fork and merge) and —
// for preemptive schedules — horizontally into same-height pieces.
//
// The package tracks occupancy at wire granularity, assigns concrete wire
// IDs to every placement, and validates the packing invariants.
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
	pieces []Piece
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

// Height returns the bin's height (total TAM width).
func (b *Bin) Height() int { return b.height }

// Pieces returns the placed pieces in placement order. The slice is shared;
// callers must not mutate it.
func (b *Bin) Pieces() []Piece { return b.pieces }

// FreeWiresAt returns the wire indices free during [start, end), in
// ascending order.
func (b *Bin) FreeWiresAt(start, end int64) []int {
	var free []int
	for w := 0; w < b.height; w++ {
		if b.wireFree(w, start, end) {
			free = append(free, w)
		}
	}
	return free
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

// Place occupies width wires during [start, end) for coreID, choosing the
// lowest-numbered free wires (first-fit; the chosen set may be
// non-contiguous, which is exactly the paper's fork-and-merge). It returns
// the placed piece or an error when fewer than width wires are free.
func (b *Bin) Place(coreID int, width int, start, end int64) (*Piece, error) {
	return b.PlacePreferred(coreID, width, start, end, nil)
}

// PlacePreferred is Place with wire-stability: wires listed in prefer are
// chosen first when free, so a test that is preempted and resumed (or a
// multi-piece schedule replay) keeps its TAM wiring wherever possible.
func (b *Bin) PlacePreferred(coreID int, width int, start, end int64, prefer []int) (*Piece, error) {
	if width < 1 {
		return nil, fmt.Errorf("rect: core %d: non-positive width %d", coreID, width)
	}
	if start < 0 || end <= start {
		return nil, fmt.Errorf("rect: core %d: bad interval [%d,%d)", coreID, start, end)
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
		return nil, fmt.Errorf("rect: core %d: need %d wires in [%d,%d), only %d free",
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
	b.pieces = append(b.pieces, Piece{CoreID: coreID, Start: start, End: end, Wires: wires})
	return &b.pieces[len(b.pieces)-1], nil
}

// Makespan returns the time at which the last piece ends (the filled bin
// width, i.e. the SOC testing time), or 0 for an empty bin.
func (b *Bin) Makespan() int64 {
	var m int64
	for i := range b.pieces {
		if b.pieces[i].End > m {
			m = b.pieces[i].End
		}
	}
	return m
}

// UsedArea returns the total wire-cycles covered by pieces.
func (b *Bin) UsedArea() int64 {
	var a int64
	for i := range b.pieces {
		a += int64(b.pieces[i].Width()) * b.pieces[i].Duration()
	}
	return a
}

// IdleArea returns the unfilled wire-cycles of the bin up to its makespan
// (the paper's idle time on TAM wires).
func (b *Bin) IdleArea() int64 {
	return int64(b.height)*b.Makespan() - b.UsedArea()
}

// Utilization returns the fraction of the bin that is filled, in [0,1].
func (b *Bin) Utilization() float64 {
	if m := b.Makespan(); m > 0 {
		return float64(b.UsedArea()) / float64(int64(b.height)*m)
	}
	return 0
}

// WidthInUseAt returns the number of wires busy at the given instant.
func (b *Bin) WidthInUseAt(t int64) int {
	n := 0
	for w := 0; w < b.height; w++ {
		for _, iv := range b.busy[w] {
			if iv.start <= t && t < iv.end {
				n++
				break
			}
		}
	}
	return n
}

// Validate re-checks every packing invariant from the raw pieces:
// wire indices in range, no wire double-booked, and per-core pieces
// non-overlapping in time.
func (b *Bin) Validate() error {
	perWire := make(map[int][]ival)
	perCore := make(map[int][]ival)
	for i := range b.pieces {
		p := &b.pieces[i]
		if p.Start < 0 || p.End <= p.Start {
			return fmt.Errorf("rect: piece %d (core %d) has bad interval [%d,%d)", i, p.CoreID, p.Start, p.End)
		}
		if len(p.Wires) == 0 {
			return fmt.Errorf("rect: piece %d (core %d) has no wires", i, p.CoreID)
		}
		seen := make(map[int]bool, len(p.Wires))
		for _, w := range p.Wires {
			if w < 0 || w >= b.height {
				return fmt.Errorf("rect: piece %d (core %d) uses wire %d outside bin height %d", i, p.CoreID, w, b.height)
			}
			if seen[w] {
				return fmt.Errorf("rect: piece %d (core %d) lists wire %d twice", i, p.CoreID, w)
			}
			seen[w] = true
			perWire[w] = append(perWire[w], ival{p.Start, p.End})
		}
		perCore[p.CoreID] = append(perCore[p.CoreID], ival{p.Start, p.End})
	}
	for w, ivs := range perWire {
		if err := checkDisjoint(ivs); err != nil {
			return fmt.Errorf("rect: wire %d double-booked: %v", w, err)
		}
	}
	for c, ivs := range perCore {
		if err := checkDisjoint(ivs); err != nil {
			return fmt.Errorf("rect: core %d pieces overlap in time: %v", c, err)
		}
	}
	return nil
}

func checkDisjoint(ivs []ival) error {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	for i := 1; i < len(ivs); i++ {
		if ivs[i].start < ivs[i-1].end {
			return fmt.Errorf("[%d,%d) overlaps [%d,%d)", ivs[i].start, ivs[i].end, ivs[i-1].start, ivs[i-1].end)
		}
	}
	return nil
}
