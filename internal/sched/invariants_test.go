package sched

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// demoSchedule builds a valid schedule of the demo SOC (hierarchy,
// precedence, concurrency, and a shared BIST engine in one toy) for
// invariant-mutation tests.
func demoSchedule(t *testing.T) (*Schedule, *Optimizer) {
	t.Helper()
	s := bench.Demo()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := opt.Run(Params{TAMWidth: 16, Percent: 5, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sch, opt
}

func TestCheckInvariantsAcceptsValidSchedules(t *testing.T) {
	sch, opt := demoSchedule(t)
	if err := CheckInvariants(opt.SOC(), sch); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	// Power-constrained and preemptive schedules pass too.
	s := bench.D695()
	opt2, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := opt2.LargerCorePreemptions(2)
	if err != nil {
		t.Fatal(err)
	}
	sch2, err := opt2.Run(Params{
		TAMWidth:       24,
		Percent:        5,
		Delta:          1,
		PowerMax:       DefaultPowerBudget(s, 125),
		MaxPreemptions: mp,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckInvariants(s, sch2); err != nil {
		t.Fatalf("valid constrained schedule rejected: %v", err)
	}
}

func TestCheckInvariantsUnknownCore(t *testing.T) {
	sch, opt := demoSchedule(t)
	sch.Assignments[9999] = &Assignment{
		CoreID: 9999,
		Width:  1,
		Pieces: []Piece{{CoreID: 9999, Start: 0, End: 1, Wires: []int{0}}},
	}
	err := CheckInvariants(opt.SOC(), sch)
	var uce *UnknownCoreError
	if !errors.As(err, &uce) {
		t.Fatalf("error = %v, want *UnknownCoreError", err)
	}
	if uce.CoreID != 9999 {
		t.Fatalf("UnknownCoreError.CoreID = %d, want 9999", uce.CoreID)
	}
}

func TestCheckInvariantsMissingCore(t *testing.T) {
	sch, opt := demoSchedule(t)
	for id := range sch.Assignments {
		delete(sch.Assignments, id)
		break
	}
	if err := CheckInvariants(opt.SOC(), sch); err == nil {
		t.Fatal("schedule missing a core accepted")
	}
}

// TestCheckInvariantsWireOverlap: every placement defect is caught by
// CheckInvariants, and identically by both Verify forms, since the
// assignments are the schedule's only placement record and Verify is
// CheckInvariants plus the timing model.
func TestCheckInvariantsWireOverlap(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(sch *Schedule)
		want   string
	}{
		{
			// Move core 1 onto core 2's exact wires and interval so a TAM
			// wire carries two tests at once.
			name: "another core's wires and interval",
			mutate: func(sch *Schedule) {
				a, b := sch.Assignments[1], sch.Assignments[2]
				a.Width, a.BaseTime = b.Width, b.BaseTime
				a.Pieces = []Piece{{CoreID: a.CoreID, Start: b.Pieces[0].Start, End: b.Pieces[0].End, Wires: slices.Clone(b.Pieces[0].Wires)}}
			},
			want: "double-booked",
		},
		{
			// Replace only the wires of core 4's first piece with three of
			// core 6's, which carry core 6 over the same interval.
			name: "assignment wires only",
			mutate: func(sch *Schedule) {
				a, b := sch.Assignments[4], sch.Assignments[6]
				a.Pieces[0].Wires = slices.Clone(b.Pieces[0].Wires[:a.Width])
			},
			want: "double-booked",
		},
		{
			name: "wire listed twice",
			mutate: func(sch *Schedule) {
				ws := sch.Assignments[6].Pieces[0].Wires
				ws[1] = ws[0]
			},
			want: "twice",
		},
		{
			name: "wire outside the TAM",
			mutate: func(sch *Schedule) {
				ws := sch.Assignments[6].Pieces[0].Wires
				ws[len(ws)-1] = sch.TAMWidth
			},
			want: "outside TAM width",
		},
		{
			// Split core 3's test seamlessly in two (a valid schedule when
			// stored in time order) and store the halves reversed.
			name: "pieces out of time order",
			mutate: func(sch *Schedule) {
				a := sch.Assignments[3]
				p := a.Pieces[0]
				mid := p.Start + p.Duration()/2
				first, second := p, p
				first.End, second.Start = mid, mid
				a.Pieces = []Piece{second, first}
			},
			want: "out of time order",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sch, opt := demoSchedule(t)
			for _, id := range []int{1, 2, 3, 4, 6} {
				if sch.Assignments[id] == nil {
					t.Fatalf("demo schedule has no core %d", id)
				}
			}
			tc.mutate(sch)
			for _, c := range []struct {
				name string
				err  error
			}{
				{"CheckInvariants", CheckInvariants(opt.SOC(), sch)},
				{"Verify", Verify(opt.SOC(), sch)},
				{"Optimizer.Verify", opt.Verify(sch)},
			} {
				if c.err == nil || !strings.Contains(c.err.Error(), tc.want) {
					t.Errorf("%s = %v, want an error containing %q", c.name, c.err, tc.want)
				}
			}
		})
	}
}

func TestCheckInvariantsCoreTestedTwiceAtOnce(t *testing.T) {
	sch, opt := demoSchedule(t)
	var a *Assignment
	for _, cand := range sch.Assignments {
		a = cand
		break
	}
	p := a.Pieces[0]
	a.Pieces = append(a.Pieces, p) // the same interval twice
	if err := CheckInvariants(opt.SOC(), sch); err == nil {
		t.Fatal("doubly-tested core accepted")
	}
}

func TestCheckInvariantsPowerBudget(t *testing.T) {
	sch, opt := demoSchedule(t)
	// Claim a power budget of 1: any overlap of two powered tests (or any
	// single test with power > 1) must now be rejected.
	sch.Params.PowerMax = 1
	if err := CheckInvariants(opt.SOC(), sch); err == nil {
		t.Fatal("power-infeasible schedule accepted")
	}
}

func TestCheckInvariantsPrecedence(t *testing.T) {
	s := bench.Demo()
	if len(s.Precedences) == 0 {
		t.Fatal("demo SOC has no precedence edges")
	}
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := opt.Run(Params{TAMWidth: 16, Percent: 5, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Drag the successor of the first precedence edge to t=0 so it starts
	// before its predecessor completes.
	after := s.Precedences[0].After
	a := sch.Assignments[after]
	dur := a.Pieces[0].End - a.Pieces[0].Start
	a.Pieces = []Piece{{CoreID: after, Start: 0, End: dur, Wires: a.Pieces[0].Wires}}
	if err := CheckInvariants(s, sch); err == nil {
		t.Fatal("precedence-violating schedule accepted")
	}
}

func TestVerifyUnknownCoreTyped(t *testing.T) {
	sch, opt := demoSchedule(t)
	sch.Assignments[777] = &Assignment{
		CoreID: 777,
		Width:  1,
		Pieces: []Piece{{CoreID: 777, Start: 0, End: 1, Wires: []int{0}}},
	}
	for _, v := range []error{Verify(opt.SOC(), sch), opt.Verify(sch)} {
		var uce *UnknownCoreError
		if !errors.As(v, &uce) {
			t.Errorf("error = %v, want *UnknownCoreError", v)
		} else if uce.CoreID != 777 {
			t.Errorf("UnknownCoreError.CoreID = %d, want 777", uce.CoreID)
		}
	}
}

// preemptiveSchedule builds a schedule with one genuinely split core for
// the split-accounting mutation tests. The demo schedule is split by
// hand — a successor-free core's piece is cut in half and the second
// segment moved past the makespan, where it can overlap no wires, mutex
// partner, or power peak — and the core gets a budget of one preemption,
// so the pre-mutation schedule still passes CheckInvariants and each test
// mutates exactly one accounting fact.
func preemptiveSchedule(t *testing.T) (*Schedule, *Optimizer, int) {
	t.Helper()
	sch, opt := demoSchedule(t)
	hasSuccessor := make(map[int]bool)
	for _, p := range opt.SOC().Precedences {
		hasSuccessor[p.Before] = true
	}
	for id, a := range sch.Assignments {
		if hasSuccessor[id] || len(a.Pieces) != 1 {
			continue
		}
		p := a.Pieces[0]
		if p.End-p.Start < 2 {
			continue
		}
		mid := p.Start + (p.End-p.Start)/2
		gap := sch.Makespan + 10
		resumed := p
		resumed.Start = mid + gap
		resumed.End = p.End + gap
		a.Pieces[0].End = mid
		a.Pieces = append(a.Pieces, resumed)
		a.Preemptions = 1
		sch.Params.MaxPreemptions = map[int]int{id: 1}
		if err := CheckInvariants(opt.SOC(), sch); err != nil {
			t.Fatalf("hand-split schedule must still be valid: %v", err)
		}
		return sch, opt, id
	}
	t.Fatal("no splittable core in the demo schedule")
	return nil, nil, 0
}

// TestCheckInvariantsShortSegment is the regression test for split-test
// wholeness: a preemptive schedule whose segment was cut short (its
// durations no longer sum to BaseTime + PenaltyCycles) must be rejected —
// a dropped cycle is an untested part of the core.
func TestCheckInvariantsShortSegment(t *testing.T) {
	sch, opt, id := preemptiveSchedule(t)
	a := sch.Assignments[id]
	last := &a.Pieces[len(a.Pieces)-1]
	last.End-- // cut the final resumed segment one cycle short
	err := CheckInvariants(opt.SOC(), sch)
	if err == nil {
		t.Fatal("schedule with a cut-short segment accepted")
	}
	if !strings.Contains(err.Error(), "segments sum to") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

// TestCheckInvariantsPreemptionCountMismatch: the claimed Preemptions must
// match the resume gaps the pieces actually show.
func TestCheckInvariantsPreemptionCountMismatch(t *testing.T) {
	sch, opt, id := preemptiveSchedule(t)
	sch.Assignments[id].Preemptions++
	err := CheckInvariants(opt.SOC(), sch)
	if err == nil {
		t.Fatal("schedule with a preemption-count lie accepted")
	}
	if !strings.Contains(err.Error(), "resume gaps") {
		t.Fatalf("wrong rejection: %v", err)
	}
}

// TestCheckInvariantsNegativeAccounting: negative preemption bookkeeping
// is rejected before the sums are even formed.
func TestCheckInvariantsNegativeAccounting(t *testing.T) {
	sch, opt := demoSchedule(t)
	for _, a := range sch.Assignments {
		a.PenaltyCycles = -1
		break
	}
	err := CheckInvariants(opt.SOC(), sch)
	if err == nil {
		t.Fatal("schedule with negative penalty cycles accepted")
	}
	if !strings.Contains(err.Error(), "negative preemption accounting") {
		t.Fatalf("wrong rejection: %v", err)
	}
}
