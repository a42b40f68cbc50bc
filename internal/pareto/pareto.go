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
// strictly increasing Width and strictly decreasing Time.
type Set struct {
	// CoreID identifies the core.
	CoreID int
	// MaxWidth is the width cap the set was computed under (the paper's
	// w_max, typically 64, further capped by the SOC TAM width).
	MaxWidth int
	// Points holds the Pareto points, Points[0].Width == 1.
	Points []Point
	// times caches T(w) for every w in 1..MaxWidth (index w-1).
	times []int64
}

// Compute builds the Pareto set of core c for widths 1..maxWidth.
func Compute(c *soc.Core, maxWidth int) (*Set, error) {
	s, _, err := ComputeDesigns(c, maxWidth)
	return s, err
}

// ComputeDesigns builds the Pareto set of core c for widths 1..maxWidth and
// additionally returns every wrapper design the staircase construction had
// to produce anyway, indexed by width-1. Staircase construction is the only
// place the framework pays for wrapper design; callers that keep the
// returned slice (sched.Optimizer's per-(core,width) cache) never redesign
// a wrapper again. The designs are immutable and safe to share.
func ComputeDesigns(c *soc.Core, maxWidth int) (*Set, []*wrapper.Design, error) {
	if maxWidth < 1 {
		return nil, nil, fmt.Errorf("pareto: core %d: non-positive max width %d", c.ID, maxWidth)
	}
	s := &Set{CoreID: c.ID, MaxWidth: maxWidth, times: make([]int64, maxWidth)}
	designs := make([]*wrapper.Design, maxWidth)
	var prev int64 = -1
	for w := 1; w <= maxWidth; w++ {
		d, err := wrapper.DesignWrapper(c, w)
		if err != nil {
			return nil, nil, err
		}
		designs[w-1] = d
		t := d.TestTime()
		s.times[w-1] = t
		if prev == -1 || t < prev {
			s.Points = append(s.Points, Point{Width: w, Time: t})
			prev = t
		}
	}
	return s, designs, nil
}

// Time returns T(w) for 1 <= w <= MaxWidth. Widths above MaxWidth saturate
// to T(MaxWidth); widths below 1 panic (programmer error).
func (s *Set) Time(w int) int64 {
	if w < 1 {
		panic(fmt.Sprintf("pareto: core %d: width %d < 1", s.CoreID, w))
	}
	if w > s.MaxWidth {
		w = s.MaxWidth
	}
	return s.times[w-1]
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
// exists (w >= 1 always has one, since width 1 is Pareto-optimal). Points
// are width-ascending, so this is a binary search — SnapDown sits inside
// the scheduler's idle-insertion and widening inner loops.
func (s *Set) SnapDown(w int) (int, bool) {
	if w < 1 {
		return 0, false
	}
	// First point with Width > w; its predecessor is the answer.
	i := sort.Search(len(s.Points), func(k int) bool { return s.Points[k].Width > w })
	if i == 0 {
		return 0, false
	}
	return s.Points[i-1].Width, true
}

// PreferredWidth implements the Initialize subroutine (Fig. 5): choose the
// smallest width whose testing time is within percent% of the time at
// MaxWidth, then, if the highest Pareto-optimal width w* is at most delta
// wires larger, promote to w* (the "bottleneck rescue" heuristic that wins
// SOC p34392 its minimum testing time in the paper).
//
// percent is the paper's user parameter (1..10 typically); delta is the
// allowed width difference (0..4 typically).
func (s *Set) PreferredWidth(percent, delta int) int {
	target := s.MinTime() + (s.MinTime()*int64(percent))/100
	pref := s.MaxParetoWidth()
	// Points are width-ascending / time-descending: the first point at or
	// under the target time is the smallest qualifying width.
	for _, p := range s.Points {
		if p.Time <= target {
			pref = p.Width
			break
		}
	}
	if wstar := s.MaxParetoWidth(); wstar-pref <= delta {
		pref = wstar
	}
	return pref
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
// at their length, so an append copies) and time table.
// cap values at or above MaxWidth return the receiver unchanged.
func (s *Set) Capped(cap int) (*Set, error) {
	if cap < 1 {
		return nil, fmt.Errorf("pareto: core %d: non-positive cap %d", s.CoreID, cap)
	}
	if cap >= s.MaxWidth {
		return s, nil
	}
	n := sort.Search(len(s.Points), func(k int) bool { return s.Points[k].Width > cap })
	return &Set{CoreID: s.CoreID, MaxWidth: cap, Points: s.Points[:n:n], times: s.times[:cap]}, nil
}

// Staircase returns the full (width, time) series for w = 1..MaxWidth,
// suitable for plotting Fig. 1 / Fig. 9(a)-style curves.
func (s *Set) Staircase() []Point {
	out := make([]Point, s.MaxWidth)
	for w := 1; w <= s.MaxWidth; w++ {
		out[w-1] = Point{Width: w, Time: s.times[w-1]}
	}
	return out
}

// ComputeAll builds Pareto sets for every core of the SOC under the same
// width cap, indexed by core ID.
func ComputeAll(s *soc.SOC, maxWidth int) (map[int]*Set, error) {
	sets, _, err := ComputeAllDesigns(s, maxWidth)
	return sets, err
}

// ComputeAllDesigns builds Pareto sets and retains every wrapper design for
// every core of the SOC, both indexed by core ID (designs additionally by
// width-1). See ComputeDesigns.
func ComputeAllDesigns(s *soc.SOC, maxWidth int) (map[int]*Set, map[int][]*wrapper.Design, error) {
	sets := make(map[int]*Set, len(s.Cores))
	designs := make(map[int][]*wrapper.Design, len(s.Cores))
	for _, c := range s.Cores {
		ps, ds, err := ComputeDesigns(c, maxWidth)
		if err != nil {
			return nil, nil, err
		}
		sets[c.ID] = ps
		designs[c.ID] = ds
	}
	return sets, designs, nil
}
