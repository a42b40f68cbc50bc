package sched

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/constraint"
	"repro/internal/soc"
)

// UnknownCoreError reports a core ID the SOC does not define, referenced
// by a schedule's assignment (a stale or tampered schedule, or one
// produced for a different SOC) or by a positive preemption budget in the
// parameters of a scheduling call. Callers distinguish it from other
// failures with errors.As.
type UnknownCoreError struct {
	// CoreID is the referenced core the SOC does not define.
	CoreID int
	// Budget is set when a preemption budget, not an assignment,
	// references the core.
	Budget bool
}

func (e *UnknownCoreError) Error() string {
	if e.Budget {
		return fmt.Sprintf("sched: preemption budget references unknown core %d", e.CoreID)
	}
	return fmt.Sprintf("sched: assignment references unknown core %d", e.CoreID)
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
//   - the regime the schedule's Params name holds per core: Preemptions
//     stays within the core's budget (Params.Budgets; a core without one
//     may not be split) and Width within MaxWidth (0 means
//     DefaultMaxWidth);
//   - no TAM-wire overlap: each piece's wires are distinct and inside
//     [0, TAMWidth), and no wire carries two pieces at the same instant;
//   - the power budget is never exceeded at any instant;
//   - precedence edges are honored (a successor never starts before every
//     predecessor has completed) and mutual-exclusion edges — explicit
//     concurrency constraints, hierarchy-implied ones unless the run
//     ignored hierarchy, and shared BIST engines — never overlap.
//
// The wire checks use one slice of (wire, start, end, core) records, one
// per wire of every piece: a piece's records sorted by wire show a repeat
// or a wire outside the TAM, and all of them, stably sorted by (wire,
// start), show a double booking as two neighbours on one wire. Each
// core's intervals are carved from one more slice. So the check allocates
// in proportion to the schedule's pieces and wires, never to its declared
// TAM width.
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
	budgets, maxWidth := sch.Params.Budgets(), sch.Params.Defaults().MaxWidth
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

	// One record per piece wire and one interval per piece, each slice
	// sized up front.
	nrec, npiece := 0, 0
	for _, c := range s.Cores {
		if a := sch.Assignments[c.ID]; a != nil {
			npiece += len(a.Pieces)
			for i := range a.Pieces {
				nrec += len(a.Pieces[i].Wires)
			}
		}
	}
	recs := make([]wireUse, 0, nrec)
	ivs := make([]constraint.Interval, 0, npiece)
	intervals := make(map[int][]constraint.Interval, len(s.Cores))
	for k, c := range s.Cores {
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
		first := len(ivs)
		for i := range a.Pieces {
			p := &a.Pieces[i]
			if p.Start < 0 || p.End <= p.Start {
				return fmt.Errorf("sched: core %d piece %d has bad interval [%d,%d)", c.ID, i, p.Start, p.End)
			}
			if len(p.Wires) != a.Width {
				return fmt.Errorf("sched: core %d piece %d spans %d wires, assignment says %d", c.ID, i, len(p.Wires), a.Width)
			}
			from := len(recs)
			for _, w := range p.Wires {
				recs = append(recs, wireUse{wire: w, start: p.Start, end: p.End, core: k})
			}
			if err := checkPieceWires(recs[from:], p.Wires, c.ID, i, sch.TAMWidth); err != nil {
				return err
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
			ivs = append(ivs, constraint.Interval{Start: p.Start, End: p.End})
		}
		intervals[c.ID] = ivs[first:len(ivs):len(ivs)]
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
		if a.Preemptions > budgets[c.ID] {
			return fmt.Errorf("sched: core %d preemption count %d exceeds its budget %d", c.ID, a.Preemptions, budgets[c.ID])
		}
		if a.Width > maxWidth {
			return fmt.Errorf("sched: core %d width %d exceeds the per-core cap %d", c.ID, a.Width, maxWidth)
		}
	}
	// Every core's starts now strictly increase and every piece's wires
	// are distinct, so (wire, start, core) orders the records totally, in
	// the order a stable sort by (wire, start) of the appended records
	// gives. On each wire the first piece that starts before its
	// predecessor ends is the lowest double booking.
	slices.SortFunc(recs, func(x, y wireUse) int {
		return cmp.Or(cmp.Compare(x.wire, y.wire), cmp.Compare(x.start, y.start), cmp.Compare(x.core, y.core))
	})
	for i := 1; i < len(recs); i++ {
		if r, prev := &recs[i], &recs[i-1]; r.wire == prev.wire && r.start < prev.end {
			return fmt.Errorf("sched: TAM wire %d double-booked: core %d [%d,%d) overlaps core %d [%d,%d)",
				r.wire, s.Cores[r.core].ID, r.start, r.end, s.Cores[prev.core].ID, prev.start, prev.end)
		}
	}

	chk, err := sch.Params.checker(s)
	if err != nil {
		return err
	}
	return chk.ValidateTimeline(intervals)
}

// wireUse is one TAM wire of one piece: the piece's span and its core's
// position in the SOC's core list.
type wireUse struct {
	wire       int
	start, end int64
	core       int
}

// checkPieceWires checks one piece's wires: each inside [0, tamWidth) and
// none listed twice. recs holds the piece's records, one per wire and at
// least one, which it sorts by wire, so a valid list costs no memory
// beyond them. A bad list gets the error of its first wire that is
// outside the TAM or repeats an earlier one, found by walking it in
// listed order.
func checkPieceWires(recs []wireUse, wires []int, coreID, piece, tamWidth int) error {
	slices.SortFunc(recs, func(x, y wireUse) int { return cmp.Compare(x.wire, y.wire) })
	ok := recs[0].wire >= 0 && recs[len(recs)-1].wire < tamWidth
	for i := 1; ok && i < len(recs); i++ {
		ok = recs[i].wire != recs[i-1].wire
	}
	if ok {
		return nil
	}
	seen := make(map[int]bool, len(wires))
	for _, w := range wires {
		if w < 0 || w >= tamWidth {
			return fmt.Errorf("sched: core %d piece %d uses wire %d outside TAM width %d", coreID, piece, w, tamWidth)
		}
		if seen[w] {
			return fmt.Errorf("sched: core %d piece %d lists wire %d twice", coreID, piece, w)
		}
		seen[w] = true
	}
	return nil
}
