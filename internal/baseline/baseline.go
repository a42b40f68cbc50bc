// Package baseline implements the two comparison architectures the DAC 2002
// paper positions its flexible-width rectangle packing against:
//
//   - Fixed-width TAMs (the architecture of the earlier co-optimization
//     work it improves on): the total width W is statically partitioned
//     into B buses, every core is assigned to exactly one bus, and tests on
//     a bus run sequentially. Enumerate bus partitions, assign cores with
//     an LPT heuristic plus local improvement, and keep the best.
//
//   - Level-oriented shelf packing (NFDH/FFDH, per Coffman et al.): pick
//     one rectangle per core and pack them into time-bands ("shelves"),
//     the classical approximation the paper's generalized packing departs
//     from by letting rectangles start at arbitrary times.
//
// Neither baseline supports precedence/power constraints or preemption;
// they exist to quantify what the paper's contribution buys (Problem 1).
package baseline

import (
	"fmt"
	"sort"

	"repro/internal/pareto"
	"repro/internal/sched"
	"repro/internal/soc"
)

// FixedResult is the best fixed-width TAM architecture found.
type FixedResult struct {
	// BusWidths are the widths of the fixed buses (descending), summing to
	// at most W.
	BusWidths []int
	// AssignedBus maps core ID to its bus index.
	AssignedBus map[int]int
	// BusTimes are the per-bus serial testing times.
	BusTimes []int64
	// Makespan is the SOC testing time: max over buses.
	Makespan int64
}

// FixedWidth finds the best fixed-width TAM design for the SOC with total
// width W, trying every bus count in 1..maxBuses and every width partition,
// assigning cores by Longest-Processing-Time with pairwise-move improvement.
func FixedWidth(s *soc.SOC, w, maxWidth, maxBuses int) (*FixedResult, error) {
	if w < 1 {
		return nil, fmt.Errorf("baseline: non-positive TAM width %d", w)
	}
	if maxBuses < 1 {
		return nil, fmt.Errorf("baseline: non-positive bus count %d", maxBuses)
	}
	sets, err := pareto.ComputeAll(s, min(maxWidth, w))
	if err != nil {
		return nil, err
	}

	var best *FixedResult
	for b := 1; b <= maxBuses && b <= w; b++ {
		forEachPartition(w, b, func(widths []int) {
			r := assignLPT(s, sets, widths)
			if best == nil || r.Makespan < best.Makespan {
				best = r
			}
		})
	}
	return best, nil
}

// forEachPartition enumerates the partitions of w into exactly b parts in
// non-increasing order and calls fn with each (the slice is reused).
func forEachPartition(w, b int, fn func([]int)) {
	parts := make([]int, b)
	var rec func(rem, maxPart, idx int)
	rec = func(rem, maxPart, idx int) {
		if idx == b-1 {
			if rem >= 1 && rem <= maxPart {
				parts[idx] = rem
				fn(parts)
			}
			return
		}
		// Each remaining part needs at least 1.
		for p := min(maxPart, rem-(b-idx-1)); p >= 1; p-- {
			// Remaining parts are at most p each; prune infeasible tails.
			if int64(p)*int64(b-idx) < int64(rem) {
				break
			}
			parts[idx] = p
			rec(rem-p, p, idx+1)
		}
	}
	rec(w, w, 0)
}

// assignLPT assigns cores to buses: longest test first onto the bus that
// finishes earliest, then improves by single-core moves until no move
// helps.
func assignLPT(s *soc.SOC, sets map[int]*pareto.Set, widths []int) *FixedResult {
	b := len(widths)
	times := make([][]int64, len(s.Cores)) // times[i][j]: core i on bus j
	ids := make([]int, len(s.Cores))
	for i, c := range s.Cores {
		ids[i] = c.ID
		times[i] = make([]int64, b)
		for j, bw := range widths {
			times[i][j] = sets[c.ID].Time(bw)
		}
	}
	// LPT by each core's best-case time.
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		bx, by := minOf(times[order[x]]), minOf(times[order[y]])
		if bx != by {
			return bx > by
		}
		return ids[order[x]] < ids[order[y]]
	})
	load := make([]int64, b)
	bus := make([]int, len(ids))
	for _, i := range order {
		bestJ := 0
		for j := 1; j < b; j++ {
			if load[j]+times[i][j] < load[bestJ]+times[i][bestJ] {
				bestJ = j
			}
		}
		bus[i] = bestJ
		load[bestJ] += times[i][bestJ]
	}
	// Local improvement: move one core to another bus if it lowers the max.
	improved := true
	for improved {
		improved = false
		mx := maxIdx(load)
		for _, i := range order {
			if bus[i] != mx {
				continue
			}
			for j := 0; j < b; j++ {
				if j == mx {
					continue
				}
				newFrom := load[mx] - times[i][mx]
				newTo := load[j] + times[i][j]
				cur := load[mx]
				if newFrom < cur && newTo < cur {
					load[mx] = newFrom
					load[j] = newTo
					bus[i] = j
					improved = true
					break
				}
			}
			if improved {
				break
			}
		}
	}
	res := &FixedResult{
		BusWidths:   append([]int(nil), widths...),
		AssignedBus: make(map[int]int, len(ids)),
		BusTimes:    load,
	}
	for i, id := range ids {
		res.AssignedBus[id] = bus[i]
	}
	for _, l := range load {
		if l > res.Makespan {
			res.Makespan = l
		}
	}
	return res
}

// ShelfAlgorithm selects the level-packing flavor.
type ShelfAlgorithm int

const (
	// NFDH is Next-Fit Decreasing Height: only the most recent shelf is
	// considered for placement.
	NFDH ShelfAlgorithm = iota
	// FFDH is First-Fit Decreasing Height: every open shelf is considered.
	FFDH
)

// ShelfResult is a level-oriented packing of one rectangle per core.
type ShelfResult struct {
	// Algorithm echoes the flavor used.
	Algorithm ShelfAlgorithm
	// ShelfStarts and ShelfSpans give each shelf's time interval.
	ShelfStarts, ShelfSpans []int64
	// Shelf maps core ID to its shelf index.
	Shelf map[int]int
	// Widths maps core ID to the rectangle width used.
	Widths map[int]int
	// Makespan is the total packed time.
	Makespan int64
}

// BestShelves packs the SOC with a level-oriented algorithm at every point
// of the (percent, delta) grid and returns the best packing. At each point
// every core contributes the rectangle at its preferred width (percent
// parameter as in the scheduler's Initialize, delta promotion included),
// and the rectangles are sorted by decreasing TAM width and packed into
// time-shelves whose span is the longest test they hold. Empty grids
// default to the scheduler's sched.DefaultPercents and
// sched.DefaultDeltas. Every core's Pareto set is built once per call,
// under the width cap min(maxWidth, w), and every grid point reads it.
func BestShelves(s *soc.SOC, w, maxWidth int, percents, deltas []int, algo ShelfAlgorithm) (*ShelfResult, error) {
	if w < 1 {
		return nil, fmt.Errorf("baseline: non-positive TAM width %d", w)
	}
	sets, err := pareto.ComputeAll(s, min(maxWidth, w))
	if err != nil {
		return nil, err
	}
	if len(percents) == 0 {
		percents = sched.DefaultPercents()
	}
	if len(deltas) == 0 {
		deltas = sched.DefaultDeltas()
	}
	var best *ShelfResult
	for _, a := range percents {
		for _, d := range deltas {
			if r := packShelves(s, sets, w, a, d, algo); best == nil || r.Makespan < best.Makespan {
				best = r
			}
		}
	}
	return best, nil
}

// packShelves is one (percent, delta) point of BestShelves: the shelf
// packing of each core's rectangle at its preferred width in sets.
func packShelves(s *soc.SOC, sets map[int]*pareto.Set, w, percent, delta int, algo ShelfAlgorithm) *ShelfResult {
	type rectangle struct {
		id    int
		width int
		time  int64
	}
	rects := make([]rectangle, 0, len(s.Cores))
	for _, c := range s.Cores {
		ps := sets[c.ID]
		pw := ps.PreferredWidth(percent, delta)
		rects = append(rects, rectangle{id: c.ID, width: pw, time: ps.Time(pw)})
	}
	sort.Slice(rects, func(i, j int) bool {
		if rects[i].width != rects[j].width {
			return rects[i].width > rects[j].width
		}
		return rects[i].id < rects[j].id
	})
	res := &ShelfResult{
		Algorithm: algo,
		Shelf:     make(map[int]int, len(rects)),
		Widths:    make(map[int]int, len(rects)),
	}
	var shelfUsedW []int  // wires used on each shelf
	var shelfSpan []int64 // time span of each shelf
	for _, r := range rects {
		placed := -1
		switch algo {
		case FFDH:
			for j := range shelfUsedW {
				if shelfUsedW[j]+r.width <= w {
					placed = j
					break
				}
			}
		case NFDH:
			if n := len(shelfUsedW); n > 0 && shelfUsedW[n-1]+r.width <= w {
				placed = n - 1
			}
		}
		if placed < 0 {
			shelfUsedW = append(shelfUsedW, 0)
			shelfSpan = append(shelfSpan, 0)
			placed = len(shelfUsedW) - 1
		}
		shelfUsedW[placed] += r.width
		if r.time > shelfSpan[placed] {
			shelfSpan[placed] = r.time
		}
		res.Shelf[r.id] = placed
		res.Widths[r.id] = r.width
	}
	for _, span := range shelfSpan {
		res.ShelfStarts = append(res.ShelfStarts, res.Makespan)
		res.ShelfSpans = append(res.ShelfSpans, span)
		res.Makespan += span
	}
	return res
}

func minOf(xs []int64) int64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxIdx(xs []int64) int {
	m := 0
	for i := range xs {
		if xs[i] > xs[m] {
			m = i
		}
	}
	return m
}
