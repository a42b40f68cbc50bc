package sched

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bench"
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
		{"zero core width", 4, []CoreLayout{{ID: 1, Width: 0, Spans: []Span{{0, 10}}}}, "no cached design"},
		{"width above the cache", 16, []CoreLayout{{ID: 1, Width: 9, Spans: []Span{{0, 10}}}}, "no cached design"},
		{"unknown core", 4, []CoreLayout{{ID: 99, Width: 1, Spans: []Span{{0, 10}}}}, "no cached design"},
		{"negative start", 4, []CoreLayout{{ID: 1, Width: 1, Spans: []Span{{-1, 10}}}}, "bad span"},
		{"empty span", 4, []CoreLayout{{ID: 1, Width: 1, Spans: []Span{{0, 10}, {20, 20}}}}, "bad span"},
		{"zero TAM width", 0, nil, "non-positive TAM width"},
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

// TestAssembleRandomLayoutsProperty: random d695 layouts, W from 1 to 32,
// each core in one to four spans with seamless and gapped resumes, against
// counts the test keeps itself. Assemble succeeds exactly when no fragment
// start sees more than W wires in use. Every piece carries its span on
// Width distinct ascending wires in [0, W), no wire carries two fragments
// at once, and a resumed fragment keeps min(width, its previous wires that
// are free at its start), free meaning that no fragment placed before it
// in (start, core ID) order still holds the wire.
func TestAssembleRandomLayoutsProperty(t *testing.T) {
	opt, err := New(bench.D695(), 32)
	if err != nil {
		t.Fatal(err)
	}
	var placed, rejected int
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 1 + rng.Intn(32)
		var layouts []CoreLayout
		for _, c := range opt.SOC().Cores {
			l := CoreLayout{ID: c.ID, Width: 1 + rng.Intn(max(1, w/3))}
			start := int64(rng.Intn(400))
			for range 1 + rng.Intn(4) {
				end := start + int64(1+rng.Intn(60))
				l.Spans = append(l.Spans, Span{start, end})
				start = end // the next span resumes seamlessly, or after a gap
				if rng.Intn(2) == 0 {
					start += int64(1 + rng.Intn(60))
				}
			}
			layouts = append(layouts, l)
		}
		type frag struct {
			id, width int
			span      Span
		}
		var frags []frag
		var makespan int64
		for _, l := range layouts {
			for _, sp := range l.Spans {
				frags = append(frags, frag{l.ID, l.Width, sp})
				makespan = max(makespan, sp.End)
			}
		}
		peak := 0
		for _, f := range frags {
			inUse := 0
			for _, g := range frags {
				if g.span.Start <= f.span.Start && f.span.Start < g.span.End {
					inUse += g.width
				}
			}
			peak = max(peak, inUse)
		}
		sch, err := opt.Assemble(Params{TAMWidth: w}, layouts)
		if peak > w {
			rejected++
			if err == nil || !strings.Contains(err.Error(), "wire assignment") {
				t.Logf("W=%d, peak %d: got (%v, %v), want a wire assignment error", w, peak, sch, err)
				return false
			}
			return true
		}
		if err != nil {
			t.Logf("W=%d, peak %d: %v", w, peak, err)
			return false
		}
		placed++
		if sch.Makespan != makespan {
			t.Logf("makespan %d, want %d", sch.Makespan, makespan)
			return false
		}
		var pieces []Piece
		for _, l := range layouts {
			a := sch.Assignments[l.ID]
			if len(a.Pieces) != len(l.Spans) {
				t.Logf("core %d: %d pieces for %d spans", l.ID, len(a.Pieces), len(l.Spans))
				return false
			}
			for i, p := range a.Pieces {
				if p.CoreID != l.ID || p.Start != l.Spans[i].Start || p.End != l.Spans[i].End || p.Width() != l.Width {
					t.Logf("core %d piece %d %+v, want span %v on %d wires", l.ID, i, p, l.Spans[i], l.Width)
					return false
				}
				for j, wire := range p.Wires {
					if wire < 0 || wire >= w || (j > 0 && wire <= p.Wires[j-1]) {
						t.Logf("core %d piece %d wires %v: not distinct ascending in [0,%d)", l.ID, i, p.Wires, w)
						return false
					}
				}
			}
			pieces = append(pieces, a.Pieces...)
		}
		before := func(q, p Piece) bool { return q.Start < p.Start || (q.Start == p.Start && q.CoreID < p.CoreID) }
		for _, p := range pieces {
			for _, q := range pieces {
				if q.CoreID == p.CoreID && q.Start == p.Start {
					continue
				}
				for _, wire := range p.Wires {
					if slices.Contains(q.Wires, wire) && q.Start < p.End && p.Start < q.End {
						t.Logf("wire %d carries core %d [%d,%d) and core %d [%d,%d)", wire, p.CoreID, p.Start, p.End, q.CoreID, q.Start, q.End)
						return false
					}
				}
			}
		}
		for _, l := range layouts {
			a := sch.Assignments[l.ID]
			for i := 1; i < len(a.Pieces); i++ {
				p, prev := a.Pieces[i], a.Pieces[i-1].Wires
				free, kept := 0, 0
				for _, wire := range prev {
					held := false
					for _, q := range pieces {
						if before(q, p) && q.End > p.Start && slices.Contains(q.Wires, wire) {
							held = true
						}
					}
					if !held {
						free++
					}
					if slices.Contains(p.Wires, wire) {
						kept++
					}
				}
				if kept != min(l.Width, free) {
					t.Logf("core %d resume %d keeps %d of %v, want min(%d, %d free)", l.ID, i, kept, prev, l.Width, free)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if placed == 0 || rejected == 0 {
		t.Fatalf("%d layouts placed and %d rejected; the generator must exercise both", placed, rejected)
	}
	t.Logf("%d layouts placed, %d rejected", placed, rejected)
}
