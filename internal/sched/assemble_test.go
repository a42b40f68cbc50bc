package sched

import (
	"reflect"
	"slices"
	"strings"
	"testing"
)

// layoutsOf turns a schedule back into the logical layouts Assemble takes.
func layoutsOf(sch *Schedule) []CoreLayout {
	ids := make([]int, 0, len(sch.Assignments))
	for id := range sch.Assignments {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := make([]CoreLayout, 0, len(ids))
	for _, id := range ids {
		a := sch.Assignments[id]
		l := CoreLayout{ID: id, Width: a.Width, Preemptions: a.Preemptions, Penalty: a.PenaltyCycles}
		for _, p := range a.Pieces {
			l.Spans = append(l.Spans, Span{p.Start, p.End})
		}
		out = append(out, l)
	}
	return out
}

// TestAssembleErrors: every rejected input is an error and no schedule.
// The oversubscribed case matters most: the packing search relies on it to
// fall back to its next candidate when a split layout cannot be wired.
func TestAssembleErrors(t *testing.T) {
	opt, err := New(smallSOC(), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		w       int
		layouts []CoreLayout
		want    string
	}{
		{"oversubscribed", 2, []CoreLayout{
			{ID: 1, Width: 2, Spans: []Span{{0, 10}}},
			{ID: 2, Width: 1, Spans: []Span{{5, 15}}},
		}, "wire assignment"},
		{"no spans", 4, []CoreLayout{{ID: 1, Width: 2}}, "no spans"},
		{"width above the cache", 16, []CoreLayout{{ID: 1, Width: 9, Spans: []Span{{0, 10}}}}, "no cached design"},
		{"unknown core", 4, []CoreLayout{{ID: 99, Width: 1, Spans: []Span{{0, 10}}}}, "no cached design"},
		{"zero TAM width", 0, nil, "non-positive bin height"},
	} {
		sch, err := opt.Assemble(Params{TAMWidth: tc.w}, tc.layouts)
		if err == nil || sch != nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got (%v, %v), want no schedule and an error containing %q", tc.name, sch, err, tc.want)
		}
	}
}

// TestAssembleResumeWires: a resumed fragment keeps the wires of its
// previous fragment when they are free, and otherwise takes the lowest
// free wires.
func TestAssembleResumeWires(t *testing.T) {
	opt, err := New(smallSOC(), 8)
	if err != nil {
		t.Fatal(err)
	}
	resumed := CoreLayout{ID: 1, Width: 2, Spans: []Span{{5, 10}, {20, 30}}}
	for _, tc := range []struct {
		name     string
		w        int
		others   []CoreLayout
		resumeW  []int
		makespan int64
	}{
		// Wires 0-1 are taken when core 1 starts, so it lands on 2-3; at
		// its resume every wire is free and it keeps 2-3.
		{"free", 4, []CoreLayout{{ID: 4, Width: 2, Spans: []Span{{0, 10}}}}, []int{2, 3}, 30},
		// Core 3 starts in the gap on the lowest free wires, which are
		// core 1's, so the resume moves to the lowest free pair, 4-5.
		{"taken", 6, []CoreLayout{
			{ID: 4, Width: 2, Spans: []Span{{0, 25}}},
			{ID: 3, Width: 2, Spans: []Span{{12, 40}}},
		}, []int{4, 5}, 40},
	} {
		sch, err := opt.Assemble(Params{TAMWidth: tc.w}, append([]CoreLayout{resumed}, tc.others...))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		a := sch.Assignments[1]
		if len(a.Pieces) != 2 {
			t.Fatalf("%s: core 1 has %d pieces, want 2", tc.name, len(a.Pieces))
		}
		if got := a.Pieces[0].Wires; !slices.Equal(got, []int{2, 3}) {
			t.Errorf("%s: first fragment on wires %v, want [2 3]", tc.name, got)
		}
		if got := a.Pieces[1].Wires; !slices.Equal(got, tc.resumeW) {
			t.Errorf("%s: resumed fragment on wires %v, want %v", tc.name, got, tc.resumeW)
		}
		if sch.Makespan != tc.makespan {
			t.Errorf("%s: makespan %d, want %d", tc.name, sch.Makespan, tc.makespan)
		}
	}
}

// TestAssembleKeepsPreemptionCount: Assemble stores the preemption count
// and penalty exactly as passed, never re-derived from the gaps, so a
// scheduler that miscounts is caught by CheckInvariants, inside Verify,
// instead of being silently corrected.
func TestAssembleKeepsPreemptionCount(t *testing.T) {
	sch, opt := demoSchedule(t)
	layouts := layoutsOf(sch)
	hasSuccessor := make(map[int]bool)
	for _, p := range opt.SOC().Precedences {
		hasSuccessor[p.Before] = true
	}
	// Split a successor-free core once, moving its second segment past the
	// makespan where it meets no wire, mutex partner or power peak, and
	// stretch that segment by the wrapper's preemption penalty.
	k := slices.IndexFunc(layouts, func(l CoreLayout) bool {
		return !hasSuccessor[l.ID] && len(l.Spans) == 1 && l.Spans[0].End-l.Spans[0].Start >= 2
	})
	if k < 0 {
		t.Fatal("no splittable core in the demo schedule")
	}
	l := &layouts[k]
	pen := opt.Design(l.ID, l.Width).PreemptionPenalty()
	sp := l.Spans[0]
	mid, gap := sp.Start+(sp.End-sp.Start)/2, sch.Makespan+10
	l.Spans = []Span{{sp.Start, mid}, {mid + gap, sp.End + gap + pen}}
	l.Preemptions, l.Penalty = 1, pen

	split, err := opt.Assemble(sch.Params, layouts)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Verify(split); err != nil {
		t.Fatalf("correctly counted split rejected: %v", err)
	}

	l.Preemptions = 2
	wrong, err := opt.Assemble(sch.Params, layouts)
	if err != nil {
		t.Fatal(err)
	}
	if got := wrong.Assignments[l.ID].Preemptions; got != 2 {
		t.Fatalf("stored %d preemptions, passed 2", got)
	}
	if err := opt.Verify(wrong); err == nil || !strings.Contains(err.Error(), "claims 2 preemptions") {
		t.Fatalf("miscounted preemptions: Verify = %v, want a claims-2-preemptions rejection", err)
	}
}

// TestAssembleRoundTrip: assembling the layouts of a Run rebuilds that
// Run's schedule exactly, wires included.
func TestAssembleRoundTrip(t *testing.T) {
	sch, opt := demoSchedule(t)
	got, err := opt.Assemble(sch.Params, layoutsOf(sch))
	if err != nil {
		t.Fatal(err)
	}
	got.Events = sch.Events
	if !reflect.DeepEqual(got, sch) {
		t.Fatal("assembled schedule differs from the Run that produced its layouts")
	}
}
