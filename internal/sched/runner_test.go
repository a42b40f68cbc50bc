package sched

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/constraint"
	"repro/internal/pareto"
	"repro/internal/soc"
)

// refCore is one core of refRunner.
type refCore struct {
	id             int
	pset           *pareto.Set
	pref, assigned int
	begin, end     int64
	begun, running bool
}

// refRunner is the classic selection loop before the runner kept its
// never-begun and running cores in lists: assignNew, insertSqueezed,
// widenFresh and update each scan every core, and every tie goes to the
// lowest core index because a later core must be strictly better to
// replace the pick. It is the oracle of TestRunnerMatchesReference.
type refRunner struct {
	params Params
	cs     *constraint.State
	ord    []refCore
	now    int64
	wAvail int
	left   int
	events int
}

// refRun runs the reference loop over the capped sets under params.
func refRun(chk *constraint.Checker, sets []*pareto.Set, params Params) (*refRunner, error) {
	params = params.Defaults()
	r := &refRunner{params: params, cs: chk.NewState(), ord: make([]refCore, len(sets)), wAvail: params.TAMWidth, left: len(sets)}
	for i, ps := range sets {
		r.ord[i] = refCore{id: ps.CoreID, pset: ps, pref: ps.PreferredWidth(params.Percent, params.Delta)}
	}
	for r.left > 0 {
		if r.wAvail > 0 && (r.assignNew() ||
			(r.params.InsertSlack >= 0 && r.insertSqueezed()) ||
			(!r.params.DisableWidening && r.widenFresh())) {
			continue
		}
		if err := r.update(); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *refRunner) assignNew() bool {
	var best *refCore
	for i := range r.ord {
		st := &r.ord[i]
		if st.begun || st.pref > r.wAvail || !r.cs.OK(st.id) {
			continue
		}
		if best == nil || st.pset.Time(st.pref) > best.pset.Time(best.pref) {
			best = st
		}
	}
	if best == nil {
		return false
	}
	r.assignFresh(best, best.pref)
	return true
}

func (r *refRunner) insertSqueezed() bool {
	var best *refCore
	for i := range r.ord {
		st := &r.ord[i]
		if st.begun || st.pref <= r.wAvail || st.pref > r.wAvail+r.params.InsertSlack || !r.cs.OK(st.id) {
			continue
		}
		if best == nil || st.pref < best.pref {
			best = st
		}
	}
	if best == nil {
		return false
	}
	w, ok := best.pset.SnapDown(r.wAvail)
	if !ok {
		return false
	}
	r.assignFresh(best, w)
	return true
}

func (r *refRunner) widenFresh() bool {
	var best *refCore
	var bestGain int64
	var bestW int
	for i := range r.ord {
		st := &r.ord[i]
		if !st.running || st.begin != r.now {
			continue
		}
		w, ok := st.pset.SnapDown(st.assigned + r.wAvail)
		if !ok || w <= st.assigned {
			continue
		}
		if gain := st.pset.Time(st.assigned) - st.pset.Time(w); gain > bestGain {
			best, bestGain, bestW = st, gain, w
		}
	}
	if best == nil {
		return false
	}
	r.wAvail -= bestW - best.assigned
	best.assigned = bestW
	best.end = r.now + best.pset.Time(bestW)
	return true
}

func (r *refRunner) assignFresh(st *refCore, width int) {
	st.assigned, st.begun, st.running = width, true, true
	st.begin, st.end = r.now, r.now+st.pset.Time(width)
	r.cs.Start(st.id)
	r.wAvail -= width
}

func (r *refRunner) update() error {
	r.events++
	var newTime int64 = -1
	for i := range r.ord {
		if st := &r.ord[i]; st.running && (newTime == -1 || st.end < newTime) {
			newTime = st.end
		}
	}
	if newTime == -1 {
		return fmt.Errorf("sched: no test running at t=%d with %d left", r.now, r.left)
	}
	for i := range r.ord {
		st := &r.ord[i]
		if !st.running || st.end != newTime {
			continue
		}
		if st.end <= st.begin {
			return fmt.Errorf("sched: core %d: non-positive test time %d at width %d", st.id, st.end-st.begin, st.assigned)
		}
		st.running = false
		r.cs.Complete(st.id)
		r.wAvail += st.assigned
		r.left--
	}
	r.now = newTime
	return nil
}

// rect is one core's rectangle in a finished run.
type rect struct {
	begin, end int64
	width      int
}

func (r *runner) rects() []rect {
	out := make([]rect, len(r.ord))
	for i, st := range r.ord {
		out[i] = rect{st.begin, st.end, st.assigned}
	}
	return out
}

func (r *refRunner) rects() []rect {
	out := make([]rect, len(r.ord))
	for i, st := range r.ord {
		out[i] = rect{st.begin, st.end, st.assigned}
	}
	return out
}

// twins returns s with a copy of every core appended, so each core has an
// identical twin at a higher index and every selection step meets ties:
// equal testing times, equal preferred widths and equal widening gains.
func twins(s *soc.SOC) *soc.SOC {
	out := *s
	out.Name += "-twins"
	out.Cores = slices.Clone(s.Cores)
	for _, c := range s.Cores {
		twin := *c
		twin.ID, twin.Name = c.ID+len(s.Cores), c.Name+"-twin"
		if twin.Parent != 0 {
			twin.Parent += len(s.Cores)
		}
		out.Cores = append(out.Cores, &twin)
	}
	return &out
}

// TestRunnerMatchesReference: the runner, which keeps its never-begun
// cores in one list by preferred-width time, scanned once for Priority 3
// and the squeeze, and its running cores in another in the order they
// began, makes every pick of the reference loop that scans every core. Every point of the default grid gives each core the same
// begin, end and width, the same Events and the same makespan, on d695,
// demo8, p93791like, the synthRegimes SOCs and d695 with a twin of every
// core (whose ties pin each lowest-index tie-break) at six widths, each
// with and without LargerCorePreemptions(3) budgets. The runner is reused
// across the points, as a sweep reuses it.
func TestRunnerMatchesReference(t *testing.T) {
	var socs []*soc.SOC
	for _, name := range []string{"d695", "demo8", "p93791like"} {
		s, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		socs = append(socs, s)
	}
	socs = append(socs, synthRegimes()...)
	socs = append(socs, twins(bench.D695()))
	runs := 0
	for _, s := range socs {
		opt, err := New(s, DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		mp, err := opt.LargerCorePreemptions(3)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{8, 16, 24, 32, 48, 64} {
			chk, sets, err := opt.Setup(Params{TAMWidth: w})
			if err != nil {
				t.Fatal(err)
			}
			r := newRunner(chk, sets)
			for _, budgets := range []map[int]int{nil, mp} {
				for _, p := range fullGrid(Params{TAMWidth: w, MaxPreemptions: budgets}, nil, nil) {
					runs++
					ref, refErr := refRun(chk, sets, p)
					r.plan(func(i int) int { return sets[i].Promote(sets[i].AlphaWidth(p.Percent), p.Delta) })
					done, err := r.run(context.Background(), p, 0, unbeaten)
					if refErr != nil || err != nil || !done {
						t.Fatalf("%s W=%d %+v: run (%v, %v), reference %v", s.Name, w, p, done, err, refErr)
					}
					if r.events != ref.events || r.now != ref.now || !reflect.DeepEqual(r.rects(), ref.rects()) {
						t.Fatalf("%s W=%d α=%d δ=%d slack=%d budgets=%v: makespan %d, %d events; the reference gives %d, %d events\n got  %v\n want %v",
							s.Name, w, p.Percent, p.Delta, p.InsertSlack, budgets != nil, r.now, r.events, ref.now, ref.events, r.rects(), ref.rects())
					}
				}
			}
		}
	}
	t.Logf("%d runs match the reference", runs)
}

// TestRunStopsOnlyWhenItCannotWin: for every representative of d695 and
// of each synthRegimes SOC at W=32, a run whose sweep has already finished
// a run of the same makespan at an earlier grid index stops early, and the
// same makespan at a later grid index, a tie this run would win, lets it
// finish with the layout, Events and makespan of a run with no bar.
func TestRunStopsOnlyWhenItCannotWin(t *testing.T) {
	ctx := context.Background()
	var runs, events, cutEvents int
	for _, s := range append([]*soc.SOC{bench.D695()}, synthRegimes()...) {
		opt, err := New(s, DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		params := Params{TAMWidth: 32}
		chk, sets, err := opt.Setup(params)
		if err != nil {
			t.Fatal(err)
		}
		g := newGrid(params, nil, nil, sets)
		r := newRunner(chk, sets)
		for _, pt := range g.reps {
			r.plan(func(i int) int { return g.pref(pt, i) })
			for sl := range g.slacks {
				idx, p := g.point(sl, pt)
				if done, err := r.run(ctx, p, idx, unbeaten); !done || err != nil {
					t.Fatalf("%s grid point %d: run (%v, %v) with no bar", s.Name, idx, done, err)
				}
				want, wantEvents, makespan := r.rects(), r.events, r.now
				if done, err := r.run(ctx, p, idx, rank{makespan, idx - 1}); done || err != nil {
					t.Fatalf("%s grid point %d: run (%v, %v) against its own makespan at an earlier index; want it stopped", s.Name, idx, done, err)
				}
				runs, events, cutEvents = runs+1, events+wantEvents, cutEvents+r.events
				done, err := r.run(ctx, p, idx, rank{makespan, idx + 1})
				if !done || err != nil {
					t.Fatalf("%s grid point %d: run (%v, %v) against its own makespan at a later index; want it finished", s.Name, idx, done, err)
				}
				if r.events != wantEvents || r.now != makespan || !reflect.DeepEqual(r.rects(), want) {
					t.Fatalf("%s grid point %d: a winning tie changed the run: makespan %d, %d events, want %d, %d events",
						s.Name, idx, r.now, r.events, makespan, wantEvents)
				}
			}
		}
	}
	t.Logf("%d representatives: %d Update events run to the end, %d before the stop", runs, events, cutEvents)
}

// TestWidenTieGoesToLowestIndex: widening picks the lowest index among
// equal gains in whatever order the cores began. A d695 core and its twin
// begin at once, the twin first, and the core is the one widened.
func TestWidenTieGoesToLowestIndex(t *testing.T) {
	opt, err := New(twins(bench.D695()), DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{TAMWidth: 64}
	chk, sets, err := opt.Setup(params)
	if err != nil {
		t.Fatal(err)
	}
	core, twin := 5, 5+len(sets)/2
	w, _ := sets[core].SnapDown(4)
	r := newRunner(chk, sets)
	r.plan(func(int) int { return w })
	r.params, r.wAvail = params.Defaults(), params.TAMWidth
	r.cs.Reset()
	r.pending, r.running = append(r.pending[:0], r.order...), r.running[:0]
	for _, i := range []int{twin, core} {
		r.assignFresh(slices.Index(r.pending, i), w)
	}
	if !r.widenFresh() {
		t.Fatal("nothing widened")
	}
	if r.ord[core].assigned == w || r.ord[twin].assigned != w {
		t.Fatalf("widths: core %d, twin %d; want the core widened from %d", r.ord[core].assigned, r.ord[twin].assigned, w)
	}
}
