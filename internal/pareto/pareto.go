// Package pareto computes the testing-time-versus-TAM-width staircase of a
// wrapped core, its Pareto-optimal points, and the "preferred TAM width"
// selection used by the DAC 2002 scheduling algorithm's Initialize step.
//
// For a given core, testing time T(w) is a non-increasing staircase in the
// TAM width w: it only drops at core-specific thresholds. A width w is
// Pareto-optimal when T(w) < T(w-1); rectangles at non-Pareto widths waste
// TAM wires and are discarded.
package pareto

import (
	"fmt"
	"sort"

	"repro/internal/soc"
	"repro/internal/wrapper"
)

// Point is one Pareto-optimal (width, time) pair for a core: the minimal
// TAM width achieving that testing time.
type Point struct {
	Width int
	Time  int64
}

// Set is the Pareto-optimal rectangle set R_i of one core, ordered by
// strictly increasing Width and strictly decreasing Time, plus the core's
// per-width table: everything a scheduler reads about the core at any width.
type Set struct {
	// CoreID identifies the core.
	CoreID int
	// MaxWidth is the width cap the set was computed under (the paper's
	// w_max, typically 64, further capped by the SOC TAM width).
	MaxWidth int
	// Points holds the Pareto points, Points[0].Width == 1.
	Points []Point
	// table holds one row for every w in 1..MaxWidth (index w-1).
	table []row
}

// row is one width's entry in a Set's table.
type row struct {
	time            int64 // T(w)
	scanIn, scanOut int   // the wrapper's longest scan-in and scan-out, s_i and s_o
	snap            int   // the largest Pareto width <= w
}

// Compute builds the Pareto set of core c for widths 1..maxWidth. It
// designs the core's wrapper at every width through wrapper.ScanLengths,
// which sorts the scan chains once and reuses one scratch set across the
// widths, and keeps only the numbers the schedulers read, T(w), s_i and
// s_o: no wrapper chain is built, so a set costs one table row per width
// and a fixed number of allocations whatever maxWidth is, apart from the
// Points slice's growth.
func Compute(c *soc.Core, maxWidth int) (*Set, error) {
	if maxWidth < 1 {
		return nil, fmt.Errorf("pareto: core %d: non-positive max width %d", c.ID, maxWidth)
	}
	s := &Set{CoreID: c.ID, MaxWidth: maxWidth, table: make([]row, maxWidth)}
	err := wrapper.ScanLengths(c, maxWidth, func(w, si, so int) {
		t := wrapper.TestTime(si, so, c.Test.Patterns)
		if len(s.Points) == 0 || t < s.MinTime() {
			s.Points = append(s.Points, Point{Width: w, Time: t})
		}
		s.table[w-1] = row{time: t, scanIn: si, scanOut: so, snap: s.MaxParetoWidth()}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// at returns the table row of width w. Widths above MaxWidth saturate to
// MaxWidth; widths below 1 panic (programmer error).
func (s *Set) at(w int) *row {
	if w < 1 {
		panic(fmt.Sprintf("pareto: core %d: width %d < 1", s.CoreID, w))
	}
	return &s.table[min(w, s.MaxWidth)-1]
}

// Time returns T(w) for 1 <= w <= MaxWidth. Widths above MaxWidth saturate
// to T(MaxWidth); widths below 1 panic (programmer error).
func (s *Set) Time(w int) int64 { return s.at(w).time }

// Scan returns the longest scan-in and scan-out lengths of the core's
// wrapper at width w (the paper's s_i and s_o), with Time's width rules.
func (s *Set) Scan(w int) (scanIn, scanOut int) {
	r := s.at(w)
	return r.scanIn, r.scanOut
}

// Penalty returns the cycles one preemption costs at width w, s_i + s_o
// (wrapper.Design.PreemptionPenalty), with Time's width rules.
func (s *Set) Penalty(w int) int64 {
	r := s.at(w)
	return int64(r.scanIn) + int64(r.scanOut)
}

// MaxParetoWidth returns the highest Pareto-optimal width (the paper's w*):
// the smallest width achieving the core's minimum testing time. Widths
// beyond it buy nothing.
func (s *Set) MaxParetoWidth() int {
	return s.Points[len(s.Points)-1].Width
}

// MinTime returns the core's minimum testing time within the width cap.
func (s *Set) MinTime() int64 {
	return s.Points[len(s.Points)-1].Time
}

// SnapDown returns the largest Pareto-optimal width <= w, and true when one
// exists (w >= 1 always has one, since width 1 is Pareto-optimal); widths
// above MaxWidth snap to MaxParetoWidth. It is one lookup in a table built
// with the staircase, not a search: SnapDown sits inside the classic
// scheduler's idle-insertion and widening loops and the packing decoder.
func (s *Set) SnapDown(w int) (int, bool) {
	if w < 1 {
		return 0, false
	}
	return s.table[min(w, s.MaxWidth)-1].snap, true
}

// PreferredWidth implements the Initialize subroutine (Fig. 5): the
// α-preferred width AlphaWidth(percent), promoted by Promote(·, delta).
//
// percent is the paper's user parameter (1..10 typically); delta is the
// allowed width difference (0..4 typically).
func (s *Set) PreferredWidth(percent, delta int) int {
	return s.Promote(s.AlphaWidth(percent), delta)
}

// AlphaWidth is Initialize's α step: the smallest width whose testing time
// is within percent% of the time at MaxWidth. It never exceeds the highest
// Pareto-optimal width w*.
func (s *Set) AlphaWidth(percent int) int {
	target := s.MinTime() + (s.MinTime()*int64(percent))/100
	// Points are width-ascending / time-descending: the first point at or
	// under the target time is the smallest qualifying width.
	for _, p := range s.Points {
		if p.Time <= target {
			return p.Width
		}
	}
	return s.MaxParetoWidth()
}

// Promote is Initialize's δ step: a width at most delta wires below the
// highest Pareto-optimal width w* is promoted to w* (the "bottleneck
// rescue" heuristic that wins SOC p34392 its minimum testing time in the
// paper); any other width is returned unchanged.
func (s *Set) Promote(width, delta int) int {
	if wstar := s.MaxParetoWidth(); wstar-width <= delta {
		return wstar
	}
	return width
}

// MinArea returns min over w of w·T(w) — the smallest TAM-wire-cycle area
// any rectangle of this core can occupy. It is the per-core term of the
// scheduling lower bound. For any width w, T(w) >= T(p) where p is the
// largest Pareto width <= w (Pareto points record every strict
// improvement, and the BFD heuristic may even bump T upward in between),
// so w·T(w) >= w·T(p) > p·T(p) whenever w > p: the minimum can only be
// attained at a Pareto width, and only Points is scanned.
func (s *Set) MinArea() int64 {
	best := int64(s.Points[0].Width) * s.Points[0].Time
	for _, p := range s.Points[1:] {
		if a := int64(p.Width) * p.Time; a < best {
			best = a
		}
	}
	return best
}

// Capped returns a view of the set restricted to widths 1..cap. The Pareto
// points of the capped staircase are exactly the prefix of the full set's
// points, so this is cheap: the view shares the receiver's Points (capped
// at their length, so an append copies) and a prefix of its table.
// cap values at or above MaxWidth return the receiver unchanged.
func (s *Set) Capped(cap int) (*Set, error) {
	if cap < 1 {
		return nil, fmt.Errorf("pareto: core %d: non-positive cap %d", s.CoreID, cap)
	}
	if cap >= s.MaxWidth {
		return s, nil
	}
	n := sort.Search(len(s.Points), func(k int) bool { return s.Points[k].Width > cap })
	return &Set{CoreID: s.CoreID, MaxWidth: cap, Points: s.Points[:n:n], table: s.table[:cap]}, nil
}

// Staircase returns the full (width, time) series for w = 1..MaxWidth,
// suitable for plotting Fig. 1 / Fig. 9(a)-style curves.
func (s *Set) Staircase() []Point {
	out := make([]Point, s.MaxWidth)
	for w := 1; w <= s.MaxWidth; w++ {
		out[w-1] = Point{Width: w, Time: s.table[w-1].time}
	}
	return out
}

// ComputeAll builds Pareto sets for every core of the SOC under the same
// width cap, indexed by core ID.
func ComputeAll(s *soc.SOC, maxWidth int) (map[int]*Set, error) {
	sets := make(map[int]*Set, len(s.Cores))
	for _, c := range s.Cores {
		ps, err := Compute(c, maxWidth)
		if err != nil {
			return nil, err
		}
		sets[c.ID] = ps
	}
	return sets, nil
}
