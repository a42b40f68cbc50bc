package sched

import (
	"fmt"
	"sort"

	"repro/internal/constraint"
	"repro/internal/soc"
)

// UnknownCoreError reports a schedule whose assignments reference a core ID
// the SOC does not define — a stale or tampered schedule, or one produced
// for a different SOC. Callers distinguish it from other verification
// failures with errors.As.
type UnknownCoreError struct {
	// CoreID is the referenced core the SOC does not define.
	CoreID int
}

func (e *UnknownCoreError) Error() string {
	return fmt.Sprintf("sched: schedule references unknown core %d", e.CoreID)
}

// unknownCore returns the lowest assignment core ID the SOC does not
// define, as a typed error, or nil.
func unknownCore(s *soc.SOC, sch *Schedule) *UnknownCoreError {
	known := make(map[int]bool, len(s.Cores))
	for _, c := range s.Cores {
		known[c.ID] = true
	}
	bad := -1
	for id := range sch.Assignments {
		if !known[id] && (bad == -1 || id < bad) {
			bad = id
		}
	}
	if bad == -1 {
		return nil
	}
	return &UnknownCoreError{CoreID: bad}
}

// CheckInvariants is the backend-independent property checker and the only
// structural one: it re-derives every safety invariant a schedule must
// satisfy straight from the raw assignments, the schedule's one placement
// record, without consulting the timing model or the wrapper designs.
// Verify is CheckInvariants plus those. Every registered backend's output
// must pass:
//
//   - every assignment references a core the SOC defines (*UnknownCoreError
//     otherwise) and every core is tested exactly once: it has exactly one
//     assignment, with at least one piece, and its pieces are stored in
//     time order and never overlap;
//   - split tests are whole: a core's segment durations sum to its claimed
//     BaseTime + PenaltyCycles and its resume gaps match Preemptions, so a
//     preemptive schedule cannot drop cycles from a segment;
//   - no TAM-wire overlap: each piece's wires are distinct and inside
//     [0, TAMWidth), and no wire carries two pieces at the same instant;
//   - the power budget is never exceeded at any instant;
//   - precedence edges are honored (a successor never starts before every
//     predecessor has completed) and mutual-exclusion edges — explicit
//     concurrency constraints, hierarchy-implied ones unless the run
//     ignored hierarchy, and shared BIST engines — never overlap.
//
// The corpus invariant suite runs this across every scenario × every
// registered backend.
func CheckInvariants(s *soc.SOC, sch *Schedule) error {
	if sch == nil {
		return fmt.Errorf("sched: nil schedule")
	}
	if sch.TAMWidth < 1 {
		return fmt.Errorf("sched: non-positive TAM width %d", sch.TAMWidth)
	}
	if err := unknownCore(s, sch); err != nil {
		return err
	}
	ids := make([]int, 0, len(sch.Assignments))
	for id := range sch.Assignments {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if a := sch.Assignments[id]; a == nil {
			return fmt.Errorf("sched: core %d has a nil assignment", id)
		} else if a.CoreID != id {
			return fmt.Errorf("sched: assignment keyed %d claims core %d", id, a.CoreID)
		}
	}

	type wireIval struct {
		start, end int64
		coreID     int
	}
	perWire := make(map[int][]wireIval)
	intervals := make(map[int][]constraint.Interval, len(s.Cores))
	for _, c := range s.Cores {
		a := sch.Assignments[c.ID]
		if a == nil {
			return fmt.Errorf("sched: core %d never tested", c.ID)
		}
		if len(a.Pieces) == 0 {
			return fmt.Errorf("sched: core %d has no scheduled pieces", c.ID)
		}
		if a.Width < 1 {
			return fmt.Errorf("sched: core %d assigned non-positive width %d", c.ID, a.Width)
		}
		gaps := 0
		var total int64
		for i := range a.Pieces {
			p := &a.Pieces[i]
			if p.Start < 0 || p.End <= p.Start {
				return fmt.Errorf("sched: core %d piece %d has bad interval [%d,%d)", c.ID, i, p.Start, p.End)
			}
			if len(p.Wires) != a.Width {
				return fmt.Errorf("sched: core %d piece %d spans %d wires, assignment says %d", c.ID, i, len(p.Wires), a.Width)
			}
			seen := make(map[int]bool, len(p.Wires))
			for _, w := range p.Wires {
				if w < 0 || w >= sch.TAMWidth {
					return fmt.Errorf("sched: core %d piece %d uses wire %d outside TAM width %d", c.ID, i, w, sch.TAMWidth)
				}
				if seen[w] {
					return fmt.Errorf("sched: core %d piece %d lists wire %d twice", c.ID, i, w)
				}
				seen[w] = true
				perWire[w] = append(perWire[w], wireIval{p.Start, p.End, c.ID})
			}
			if i > 0 {
				prev := &a.Pieces[i-1]
				if p.Start < prev.Start {
					return fmt.Errorf("sched: core %d pieces out of time order: [%d,%d) stored after [%d,%d)",
						c.ID, p.Start, p.End, prev.Start, prev.End)
				}
				if p.Start < prev.End {
					return fmt.Errorf("sched: core %d tested twice at once: [%d,%d) overlaps [%d,%d)",
						c.ID, p.Start, p.End, prev.Start, prev.End)
				}
				if p.Start > prev.End {
					gaps++
				}
			}
			total += p.Duration()
			intervals[c.ID] = append(intervals[c.ID], constraint.Interval{Start: p.Start, End: p.End})
		}
		// Split tests must still test the whole core: the segment durations
		// sum to the assignment's own claim, BaseTime plus the preemption
		// penalties, and every resume-after-gap is accounted for in
		// Preemptions. A schedule that drops cycles from a segment (a test
		// cut short) is rejected here, without consulting the timing model.
		if a.Preemptions < 0 || a.PenaltyCycles < 0 {
			return fmt.Errorf("sched: core %d has negative preemption accounting (%d preemptions, %d penalty cycles)",
				c.ID, a.Preemptions, a.PenaltyCycles)
		}
		if gaps != a.Preemptions {
			return fmt.Errorf("sched: core %d claims %d preemptions but its pieces show %d resume gaps",
				c.ID, a.Preemptions, gaps)
		}
		if want := a.BaseTime + a.PenaltyCycles; total != want {
			return fmt.Errorf("sched: core %d segments sum to %d cycles, want base %d + penalty %d = %d",
				c.ID, total, a.BaseTime, a.PenaltyCycles, want)
		}
	}
	wires := make([]int, 0, len(perWire))
	for w := range perWire {
		wires = append(wires, w)
	}
	sort.Ints(wires)
	for _, w := range wires {
		ivs := perWire[w]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].start < ivs[i-1].end {
				return fmt.Errorf("sched: TAM wire %d double-booked: core %d [%d,%d) overlaps core %d [%d,%d)",
					w, ivs[i].coreID, ivs[i].start, ivs[i].end, ivs[i-1].coreID, ivs[i-1].start, ivs[i-1].end)
			}
		}
	}

	chk, err := constraint.New(s, constraint.Config{
		PowerMax:        sch.Params.PowerMax,
		IgnoreHierarchy: sch.Params.IgnoreHierarchy,
	})
	if err != nil {
		return err
	}
	return chk.ValidateTimeline(intervals)
}
