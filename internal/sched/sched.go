// Package sched implements the DAC 2002 TAM_schedule_optimizer: integrated
// wrapper/TAM co-optimization and test scheduling by generalized rectangle
// packing (Problems 1 and 2 of the paper). It selects a Pareto-optimal
// rectangle (TAM width, testing time) for each core, packs rectangles into
// the W-wire bin over time with the paper's selection loop, fills idle
// wires by squeezing in or widening rectangles, and supports precedence,
// concurrency, power and BIST constraints. A placed rectangle keeps its
// wires until it ends, so this scheduler never splits a test; Assemble and
// CheckInvariants also take the split layouts of the preemptive backends.
package sched

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/constraint"
	"repro/internal/pareto"
	"repro/internal/soc"
	"repro/internal/wrapper"
)

// DefaultMaxWidth is the per-core TAM width cap (the paper's w_max = 64).
const DefaultMaxWidth = 64

// DefaultInsertSlack is the Line-13 idle-time insertion limit: an
// unscheduled core may be squeezed into idle wires when its preferred width
// exceeds the available width by at most this many bits. The paper found 3
// the most useful after extensive experimentation.
const DefaultInsertSlack = 3

// Params tunes one scheduling run.
type Params struct {
	// TAMWidth is the total SOC TAM width W (bin height). Required.
	TAMWidth int
	// MaxWidth caps any single core's TAM width (paper: 64). Defaults to
	// DefaultMaxWidth; it is additionally capped by TAMWidth.
	MaxWidth int
	// Percent is the preferred-width parameter α: a core's preferred width
	// is the smallest width whose time is within Percent% of its time at
	// MaxWidth. Paper range: 1..10. Zero means 0% (always the highest
	// Pareto width).
	Percent int
	// Delta is the Initialize promotion parameter δ: preferred widths
	// within Delta wires of the highest Pareto width are promoted to it.
	Delta int
	// MaxPreemptions maps core ID to its preemption budget. Missing cores
	// get 0 (non-preemptable). Nil disables preemption entirely. Only the
	// preempt-rectpack and anneal backends spend budgets: the classic
	// runner never splits a test, so its schedules are the same with or
	// without them.
	MaxPreemptions map[int]int
	// PowerMax is the SOC power budget (0 = unconstrained; overrides the
	// SOC's own value when set).
	PowerMax int
	// InsertSlack is the Line-13 squeeze limit; <0 disables insertion.
	// 0 means unset: DefaultInsertSlack for a single run, the
	// DefaultInsertSlacks sweep in best mode. (A slack of 0 itself would
	// squeeze nothing, since a squeezed core needs wAvail < pref ≤
	// wAvail + slack.)
	InsertSlack int
	// DisableWidening turns off the Lines 15-16 width-growing heuristic
	// (for ablation).
	DisableWidening bool
	// IgnoreHierarchy suppresses implicit parent/child concurrency
	// constraints (for ablation).
	IgnoreHierarchy bool
	// Workers bounds the number of concurrent scheduler runs a parameter
	// sweep (SweepBest) may use; a single Run ignores it. 0 means
	// GOMAXPROCS, 1 forces the sequential path, negative values are
	// treated as 1. Parallel sweeps return schedules identical to the
	// sequential path: per-grid-point results are collected and the
	// smallest-makespan/first-grid-point tie-break is applied in grid
	// order. The portfolio backend uses the same knob to bound how many
	// backends race concurrently.
	Workers int
	// Backend names the scheduling backend to dispatch to ("classic",
	// "rectpack", "portfolio", ...); empty means DefaultBackend. Only the
	// dispatch layers (ScheduleBackend and everything above it) read this
	// field — Optimizer.Run itself ignores it and echoes it back.
	Backend string
	// BackendTimeout bounds each racer in a portfolio race: a racer that
	// exceeds it is abandoned (counted as timed out in its race record)
	// without delaying the others, and the next race runs it again. Zero
	// means no per-racer deadline. Non-portfolio backends ignore it —
	// callers wanting a whole-request deadline use the context instead.
	BackendTimeout time.Duration
	// Seed seeds randomized backends (anneal). The same seed always
	// produces byte-identical schedules; zero means DefaultSeed.
	// Deterministic backends (classic, rectpack) ignore it.
	Seed int64
}

// DefaultSeed is the seed randomized backends use when Params.Seed is 0.
const DefaultSeed = 1

// Defaults fills unset fields with the paper's defaults.
func (p Params) Defaults() Params {
	if p.MaxWidth == 0 {
		p.MaxWidth = DefaultMaxWidth
	}
	if p.InsertSlack == 0 {
		p.InsertSlack = DefaultInsertSlack
	}
	return p
}

// Assignment describes one core's final disposition in a schedule.
type Assignment struct {
	// CoreID identifies the core.
	CoreID int
	// Width is the TAM width assigned (constant across all pieces: the
	// vertical-split rule demands equal heights).
	Width int
	// Pieces are the scheduled time spans with concrete wire sets.
	Pieces []Piece
	// Preemptions counts resume-after-gap events for this core.
	Preemptions int
	// PenaltyCycles is the total extra time added by preemptions
	// (Preemptions · (si+so)).
	PenaltyCycles int64
	// BaseTime is T(Width) — testing time without preemption penalties.
	BaseTime int64
	// ScanIn, ScanOut are the wrapper's longest scan-in/scan-out lengths
	// at the assigned width.
	ScanIn, ScanOut int
}

// Piece is one placed fragment of a core's rectangle: the core occupies
// |Wires| TAM wires from Start (inclusive) to End (exclusive).
type Piece struct {
	// CoreID identifies the test the piece belongs to.
	CoreID int
	// Start and End bound the piece in cycles, Start < End.
	Start, End int64
	// Wires lists the concrete TAM wire indices (0-based, < TAMWidth,
	// ascending) carrying the piece. They need not be contiguous
	// (fork-and-merge).
	Wires []int
}

// Width returns the piece's TAM width.
func (p *Piece) Width() int { return len(p.Wires) }

// Duration returns the piece's length in cycles.
func (p *Piece) Duration() int64 { return p.End - p.Start }

// Start returns the first begin time.
func (a *Assignment) Start() int64 { return a.Pieces[0].Start }

// End returns the final completion time.
func (a *Assignment) End() int64 { return a.Pieces[len(a.Pieces)-1].End }

// TotalTime returns the total scheduled cycles (BaseTime + penalties).
func (a *Assignment) TotalTime() int64 {
	var t int64
	for i := range a.Pieces {
		t += a.Pieces[i].Duration()
	}
	return t
}

// Schedule is the result of a scheduling run.
type Schedule struct {
	// SOC names the scheduled SOC.
	SOC string
	// TAMWidth is the bin height W.
	TAMWidth int
	// Params echoes the run parameters (after Defaults).
	Params Params
	// Assignments maps core ID to its assignment.
	Assignments map[int]*Assignment
	// Makespan is the SOC testing time in cycles.
	Makespan int64
	// Events counts scheduler Update iterations (a complexity metric).
	Events int
}

// usedArea returns the wire-cycles the assignments' pieces cover.
func (s *Schedule) usedArea() int64 {
	var used int64
	for _, a := range s.Assignments {
		for i := range a.Pieces {
			used += int64(a.Pieces[i].Width()) * a.Pieces[i].Duration()
		}
	}
	return used
}

// IdleArea returns the unused wire-cycles up to the makespan.
func (s *Schedule) IdleArea() int64 { return int64(s.TAMWidth)*s.Makespan - s.usedArea() }

// Utilization returns the TAM wire utilization in [0,1].
func (s *Schedule) Utilization() float64 {
	if s.Makespan > 0 {
		return float64(s.usedArea()) / float64(int64(s.TAMWidth)*s.Makespan)
	}
	return 0
}

// DataVolume returns the tester data volume for this schedule:
// per-pin vector memory depth (= makespan) times the number of TAM pins.
func (s *Schedule) DataVolume() int64 { return int64(s.TAMWidth) * s.Makespan }

// coreState is the paper's Fig. 3 data structure for one core. A test is
// one rectangle: once begun it keeps its width and its wires until it ends,
// so a begun test is complete exactly when it is no longer running.
type coreState struct {
	id       int
	pset     *pareto.Set
	pref     int   // preferred TAM width (Initialize)
	prefTime int64 // T(pref)
	assigned int   // TAM width, fixed when the test begins
	begin    int64 // begin time
	end      int64 // end time
	begun    bool
}

// Span is one closed time interval [Start, End) of a core's test.
type Span struct{ Start, End int64 }

// CoreLayout is one core's logical schedule before wires are chosen: its
// TAM width (fixed for every span, the vertical-split rule), its spans in
// time order with seamless continuations merged, and the preemptions and
// penalty cycles its scheduler counted.
type CoreLayout struct {
	ID          int
	Width       int
	Spans       []Span
	Preemptions int
	Penalty     int64
}

// Optimizer schedules one SOC repeatedly with different parameters,
// caching every core's Pareto set across runs (parameter sweeps and width
// sweeps reuse them). A set's per-width table holds T(w), s_i and s_o, all
// a scheduler reads about a core, so no wrapper is designed after New.
//
// An Optimizer is safe for concurrent use by multiple goroutines. After
// New returns, the SOC and the cached Pareto sets are never mutated: each
// Run and each sweep owns its runners (the per-core states and the
// constraint.State) and Assemble's wire allocator, and pareto.Set.Capped
// hands out read-only views that share the immutable per-width tables.
// SweepBest fans its grid out over a worker pool, one reused runner per
// worker, and datavol.Run fans its widths out (see Params.Workers).
// Callers must not mutate the SOC passed to New while the Optimizer is in
// use.
type Optimizer struct {
	soc      *soc.SOC
	maxWidth int
	sets     map[int]*pareto.Set
}

// New validates the SOC and precomputes its Pareto sets up to maxWidth
// (0 means DefaultMaxWidth).
func New(s *soc.SOC, maxWidth int) (*Optimizer, error) {
	if maxWidth == 0 {
		maxWidth = DefaultMaxWidth
	}
	if maxWidth < 1 {
		return nil, fmt.Errorf("sched: non-positive max width %d", maxWidth)
	}
	// newGrid's fingerprints hold each preferred width in 16 bits.
	if maxWidth > math.MaxUint16 {
		return nil, fmt.Errorf("sched: max width %d above %d", maxWidth, math.MaxUint16)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sets, err := pareto.ComputeAll(s, maxWidth)
	if err != nil {
		return nil, err
	}
	return &Optimizer{soc: s, maxWidth: maxWidth, sets: sets}, nil
}

// SOC returns the optimizer's SOC.
func (o *Optimizer) SOC() *soc.SOC { return o.soc }

// ParetoSet returns the cached Pareto set of a core (full width cap).
func (o *Optimizer) ParetoSet(coreID int) *pareto.Set { return o.sets[coreID] }

// ParetoSets returns the cached Pareto sets of all cores, indexed by core
// ID. The map and the sets are shared and must be treated as read-only.
func (o *Optimizer) ParetoSets() map[int]*pareto.Set { return o.sets }

// Run schedules the SOC. The returned schedule satisfies all constraints;
// Verify re-checks every invariant and is called by tests, not by Run.
func Run(s *soc.SOC, params Params) (*Schedule, error) {
	o, err := New(s, params.Defaults().MaxWidth)
	if err != nil {
		return nil, err
	}
	return o.Run(params)
}

// Setup is the prologue every scheduling backend shares. It checks params
// (Defaults applied) against the optimizer's caches, builds the constraint
// checker, and returns every core's Pareto set capped at min(MaxWidth,
// TAMWidth), in core-ID order. The sets are read-only views of the cache.
func (o *Optimizer) Setup(params Params) (*constraint.Checker, []*pareto.Set, error) {
	params = params.Defaults()
	if params.TAMWidth < 1 {
		return nil, nil, fmt.Errorf("sched: non-positive TAM width %d", params.TAMWidth)
	}
	if params.MaxWidth > o.maxWidth {
		return nil, nil, fmt.Errorf("sched: params.MaxWidth %d exceeds optimizer cap %d", params.MaxWidth, o.maxWidth)
	}
	chk, err := constraint.New(o.soc, constraint.Config{
		PowerMax:        params.PowerMax,
		IgnoreHierarchy: params.IgnoreHierarchy,
	})
	if err != nil {
		return nil, nil, err
	}
	wmax := min(params.MaxWidth, params.TAMWidth)
	// soc.Validate (in New) gives core i the ID i+1, so walking the cores
	// in order yields the sets in core-ID order.
	sets := make([]*pareto.Set, 0, len(o.soc.Cores))
	for _, c := range o.soc.Cores {
		ps, err := o.sets[c.ID].Capped(wmax)
		if err != nil {
			return nil, nil, err
		}
		sets = append(sets, ps)
	}
	return chk, sets, nil
}

// Assemble is the epilogue every scheduling backend shares: it lays the
// logical schedule onto concrete TAM wires and builds the Schedule (Events
// is left to the caller). Fragments are placed in (start, core ID) order,
// each on the lowest free wires after first trying the wires of the core's
// previous fragment, so a preempted test resumes on its original wiring
// when it can. In start order a wire is free exactly when the last fragment
// placed on it has ended, so one busy-until time per wire is the whole
// allocator, and first-fit never reaches past the summed fragment width,
// however wide the TAM. First-fit in start order always succeeds when no
// instant needs more than TAMWidth wires (interval graphs are perfect); a
// layout that does fails with an error. Each Assignment takes BaseTime,
// ScanIn and ScanOut from the core's Pareto set and records Preemptions and
// PenaltyCycles exactly as the layout states them, for CheckInvariants to
// cross-check.
func (o *Optimizer) Assemble(params Params, layouts []CoreLayout) (*Schedule, error) {
	if params.TAMWidth < 1 {
		return nil, fmt.Errorf("sched: non-positive TAM width %d", params.TAMWidth)
	}
	out := &Schedule{
		SOC:         o.soc.Name,
		TAMWidth:    params.TAMWidth,
		Params:      params,
		Assignments: make(map[int]*Assignment, len(layouts)),
	}
	type frag struct {
		id, width int
		span      Span
	}
	frags := make([]frag, 0, len(layouts))
	total := 0 // summed fragment width
	for _, l := range layouts {
		if len(l.Spans) == 0 {
			return nil, fmt.Errorf("sched: core %d has no spans", l.ID)
		}
		ps := o.sets[l.ID]
		if ps == nil || l.Width < 1 || l.Width > o.maxWidth {
			return nil, fmt.Errorf("sched: core %d width %d: unknown core or width outside 1..%d", l.ID, l.Width, o.maxWidth)
		}
		si, so := ps.Scan(l.Width)
		out.Assignments[l.ID] = &Assignment{
			CoreID:        l.ID,
			Width:         l.Width,
			Pieces:        make([]Piece, 0, len(l.Spans)),
			Preemptions:   l.Preemptions,
			PenaltyCycles: l.Penalty,
			BaseTime:      ps.Time(l.Width),
			ScanIn:        si,
			ScanOut:       so,
		}
		for _, sp := range l.Spans {
			if sp.Start < 0 || sp.End <= sp.Start {
				return nil, fmt.Errorf("sched: core %d: bad span [%d,%d)", l.ID, sp.Start, sp.End)
			}
			frags = append(frags, frag{l.ID, l.Width, sp})
			total += l.Width
		}
	}
	slices.SortFunc(frags, func(a, b frag) int {
		if c := cmp.Compare(a.span.Start, b.span.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	busy := make([]int64, min(params.TAMWidth, total)) // busy[w]: end of wire w's last fragment
	for _, f := range frags {
		a := out.Assignments[f.id]
		wires := make([]int, 0, f.width)
		// take claims wire w if it is free at the fragment's start, and
		// marks it busy at once so the lowest-free pass skips it.
		take := func(w int) {
			if len(wires) < f.width && busy[w] <= f.span.Start {
				busy[w] = f.span.End
				wires = append(wires, w)
			}
		}
		if n := len(a.Pieces); n > 0 {
			for _, w := range a.Pieces[n-1].Wires {
				take(w)
			}
		}
		for w := 0; w < len(busy) && len(wires) < f.width; w++ {
			take(w)
		}
		if len(wires) < f.width {
			return nil, fmt.Errorf("sched: wire assignment: core %d: need %d wires in [%d,%d), only %d free",
				f.id, f.width, f.span.Start, f.span.End, len(wires))
		}
		slices.Sort(wires)
		a.Pieces = append(a.Pieces, Piece{CoreID: f.id, Start: f.span.Start, End: f.span.End, Wires: wires})
		out.Makespan = max(out.Makespan, f.span.End)
	}
	return out, nil
}

// Run schedules the optimizer's SOC under the given parameters.
// params.MaxWidth must not exceed the optimizer's cap.
func (o *Optimizer) Run(params Params) (*Schedule, error) {
	return o.runContext(context.Background(), params)
}

// runContext is Run with cancellation: the runner checks ctx every
// ctxCheckEvents Update events and returns ctx's error once it is done. A
// nil ctx behaves like context.Background().
func (o *Optimizer) runContext(ctx context.Context, params Params) (*Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	chk, sets, err := o.Setup(params)
	if err != nil {
		return nil, err
	}
	r := newRunner(chk, sets)
	r.plan(func(i int) int { return sets[i].Promote(sets[i].AlphaWidth(params.Percent), params.Delta) })
	if _, err := r.run(ctx, params, 0, unbeaten); err != nil {
		return nil, err
	}
	return r.assemble(o)
}

// ctxCheckEvents is how many Update events a run goes between checks of
// its context: one event costs O(cores), so a check every 64 bounds the
// overrun of a deadline without a measurable cost.
const ctxCheckEvents = 64

// rank orders the finished runs of a sweep: the smaller makespan wins, and
// between equal makespans the earlier grid index.
type rank struct {
	makespan int64
	idx      int
}

func (a rank) less(b rank) bool {
	return a.makespan < b.makespan || (a.makespan == b.makespan && a.idx < b.idx)
}

// unbeaten is the bar before any run has finished: every run ranks below it.
var unbeaten = rank{math.MaxInt64, math.MaxInt}

// runner holds the mutable state of the TAM_schedule_optimizer over one
// SOC's capped sets. plan fixes every core's preferred width and sorts the
// pending order once, and run resets the rest from that plan, so a sweep
// reuses one runner per worker, runs every slack of a grid representative
// on one plan, and a run allocates nothing.
type runner struct {
	params Params
	// cs holds the running and complete sets the Conflict checks read.
	cs *constraint.State
	// ord holds the states in ascending core-ID order.
	ord []coreState
	// order is the plan's pending order: every core (indices into ord) by
	// T(pref) descending, then index ascending. pending holds the
	// never-begun cores in that order, and running holds the running cores
	// in the order they began. Each selection step scans one of them, not
	// every core.
	order, pending, running []int
	// byMin holds every core by capped MinTime descending, then index;
	// byMin[minAt] is the first never-begun one (see update's bound).
	byMin []int
	minAt int

	now    int64
	wAvail int
	events int
	// over is the smallest amount by which the preferred width of a
	// never-begun core passing State.OK exceeded the free wires by more
	// than the slack, over every insertion step that found no candidate;
	// math.MaxInt when there was none. A run at a larger slack below over
	// repeats this run (see SweepBest).
	over int
}

// newRunner returns a runner over the capped sets, in core-ID order.
func newRunner(chk *constraint.Checker, sets []*pareto.Set) *runner {
	n := len(sets)
	lists := make([]int, 4*n)
	r := &runner{cs: chk.NewState(), ord: make([]coreState, n), order: lists[:n:n],
		pending: lists[n : n : 2*n], running: lists[2*n : 2*n : 3*n], byMin: lists[3*n:]}
	for i, ps := range sets {
		r.ord[i] = coreState{id: ps.CoreID, pset: ps}
		r.byMin[i] = i
	}
	slices.SortStableFunc(r.byMin, func(a, b int) int { return cmp.Compare(sets[b].MinTime(), sets[a].MinTime()) })
	return r
}

// plan gives core i (in core-ID order) the preferred width pref(i), which
// Initialize (Fig. 5) chose from α and δ, and sorts the pending order.
func (r *runner) plan(pref func(i int) int) {
	for i := range r.ord {
		st := &r.ord[i]
		st.pref = pref(i)
		st.prefTime = st.pset.Time(st.pref)
		r.order[i] = i
	}
	slices.SortFunc(r.order, func(a, b int) int {
		return cmp.Or(cmp.Compare(r.ord[b].prefTime, r.ord[a].prefTime), cmp.Compare(a, b))
	})
}

// adopt copies src's plan, so r can run its remaining slacks.
func (r *runner) adopt(src *runner) {
	for i := range r.ord {
		r.ord[i].pref, r.ord[i].prefTime = src.ord[i].pref, src.ord[i].prefTime
	}
	copy(r.order, src.order)
}

// run is Fig. 4's main loop on the plan, for grid point idx of a sweep at
// params' slack. A finished run returns true and leaves every core's
// rectangle in ord and the makespan in now. After every Update the run
// checks update's lower bound on its makespan against bar, the best run
// the sweep had finished when this one began: once (bound, idx) no longer
// ranks below bar the run cannot win, and it stops and returns false. A
// run that would finish below bar is never stopped, as its bound never
// exceeds its makespan.
func (r *runner) run(ctx context.Context, params Params, idx int, bar rank) (bool, error) {
	r.params = params.Defaults()
	r.cs.Reset()
	r.pending, r.running = append(r.pending[:0], r.order...), r.running[:0]
	for i := range r.ord {
		r.ord[i].begun = false
	}
	r.now, r.wAvail, r.events, r.minAt, r.over = 0, r.params.TAMWidth, 0, 0, math.MaxInt
	for len(r.pending)+len(r.running) > 0 {
		if r.wAvail > 0 && r.fillPass() {
			continue
		}
		bound, err := r.update()
		if err != nil {
			return false, err
		}
		if r.events%ctxCheckEvents == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		if !(rank{bound, idx}).less(bar) {
			return false, nil
		}
	}
	return true, nil
}

// assemble wires the last run's rectangles (Assemble): each core's layout
// is its one span.
func (r *runner) assemble(o *Optimizer) (*Schedule, error) {
	spans := make([]Span, len(r.ord))
	layouts := make([]CoreLayout, len(r.ord))
	for i := range r.ord {
		st := &r.ord[i]
		spans[i] = Span{Start: st.begin, End: st.end}
		layouts[i] = CoreLayout{ID: st.id, Width: st.assigned, Spans: spans[i : i+1 : i+1]}
	}
	sch, err := o.Assemble(r.params, layouts)
	if err != nil {
		return nil, err
	}
	sch.Events = r.events
	return sch, nil
}

// fillPass attempts one assignment by priority and reports whether it
// changed the bin state (so the caller re-enters with priorities reset).
// The paper's Priorities 1 and 2 (Fig. 4 lines 5-10) restart begun tests;
// here a begun test runs on until it ends (see update), so they never have
// a candidate. One scan of pending answers Priority 3 and Lines 13-14, and
// widening (Lines 15-16) comes last.
func (r *runner) fillPass() bool {
	return r.assignPending() || (!r.params.DisableWidening && r.widenFresh())
}

// assignPending begins a never-begun core, scanning pending once.
// Priority 3 (Fig. 4 lines 11-12) takes the first core in pending order,
// the largest T(pref) first and the lowest index among equals, whose
// preferred width fits and that passes the Conflict check. Failing that,
// Lines 13-14 squeeze in, rather than leave wires idle, a core whose
// preferred width exceeds the free wires by at most InsertSlack, at the
// largest Pareto width that fits: the smallest preferred width (it loses
// the least by being squeezed), the lowest index among equals. A slack
// below 1 squeezes nothing. When neither finds a core, the scan folds the
// smallest excess above the slack into over.
func (r *runner) assignPending() bool {
	slack := r.params.InsertSlack
	squeeze, over := -1, r.over // squeeze: the pick's position in pending
	for j, i := range r.pending {
		st := &r.ord[i]
		switch excess := st.pref - r.wAvail; {
		case excess <= 0:
			if r.cs.OK(st.id) {
				r.assignFresh(j, st.pref)
				return true
			}
		case excess <= slack:
			if squeeze >= 0 {
				if b := &r.ord[r.pending[squeeze]]; st.pref > b.pref || (st.pref == b.pref && i > r.pending[squeeze]) {
					continue
				}
			}
			if r.cs.OK(st.id) {
				squeeze = j
			}
		case excess < over:
			if r.cs.OK(st.id) {
				over = excess
			}
		}
	}
	if squeeze < 0 {
		r.over = over
		return false
	}
	// fillPass runs only while wires are free, so a width ≥ 1 fits.
	w, _ := r.ord[r.pending[squeeze]].pset.SnapDown(r.wAvail)
	r.assignFresh(squeeze, w)
	return true
}

// widenFresh handles Lines 15-16: when no rectangle fits the idle wires,
// grow the rectangle of a core that begins exactly now, choosing the core
// that gains the most testing time from the extra wires, the lowest index
// among equals.
func (r *runner) widenFresh() bool {
	best := -1
	var bestGain int64
	var bestW int
	for _, i := range r.running {
		st := &r.ord[i]
		if st.begin != r.now {
			continue
		}
		w, ok := st.pset.SnapDown(st.assigned + r.wAvail)
		if !ok || w <= st.assigned {
			continue
		}
		gain := st.pset.Time(st.assigned) - st.pset.Time(w)
		if gain > bestGain || (best >= 0 && gain == bestGain && i < best) {
			best, bestGain, bestW = i, gain, w
		}
	}
	if best < 0 {
		return false
	}
	// The core began at this instant: no progress has been made, so the
	// whole rectangle is replaced by the wider, shorter one.
	st := &r.ord[best]
	r.wAvail -= bestW - st.assigned
	st.assigned = bestW
	st.end = r.now + st.pset.Time(bestW)
	return true
}

// assignFresh begins the never-begun core at position j of pending at the
// given width, from now until it ends.
func (r *runner) assignFresh(j, width int) {
	i := r.pending[j]
	r.pending = slices.Delete(r.pending, j, j+1)
	r.running = append(r.running, i) // within capacity: no allocation
	st := &r.ord[i]
	st.assigned, st.begun = width, true
	st.begin, st.end = r.now, r.now+st.pset.Time(width)
	r.cs.Start(st.id)
	r.wAvail -= width
}

// update is the Fig. 8 procedure: advance time to the earliest end among
// the running cores and complete every core that ends then, releasing its
// wires. Every other running core keeps its wires, its span and its place
// in the constraint state. The paper's Update stops them all for the
// selection loop to place again, but they ran together on at most W wires
// and passed the Conflict checks together, and completions only release
// predecessors, so the loop would place each again at once and unsplit.
//
// update returns a lower bound on the run's makespan: the new time, the
// end of every running test, and the new time plus the largest capped
// MinTime of any never-begun core. Every running test began before the new
// time, so widenFresh can no longer change it, and a never-begun test can
// neither begin before the new time nor run shorter than its MinTime.
// Among tests with a non-positive span the error names the lowest index.
func (r *runner) update() (int64, error) {
	if len(r.running) == 0 {
		// Unreachable: with nothing running every begun test is complete,
		// constraint.New refused precedence cycles and any single test
		// above the power budget, so some never-begun core passes
		// State.OK, and its preferred width, at most min(MaxWidth, W),
		// fits the W free wires: Priority 3 would have placed it.
		return 0, fmt.Errorf("sched: no test running at t=%d with %d left", r.now, len(r.pending))
	}
	r.events++
	end0 := r.ord[r.running[0]].end
	newTime, bound := end0, end0
	for _, i := range r.running[1:] {
		newTime, bound = min(newTime, r.ord[i].end), max(bound, r.ord[i].end)
	}
	keep, bad := r.running[:0], -1
	for _, i := range r.running {
		st := &r.ord[i]
		switch {
		case st.end != newTime:
			keep = append(keep, i)
		case st.end <= st.begin:
			if bad < 0 || i < bad {
				bad = i
			}
		default:
			r.cs.Complete(st.id)
			r.wAvail += st.assigned
		}
	}
	if bad >= 0 {
		st := &r.ord[bad]
		return 0, fmt.Errorf("sched: core %d: non-positive test time %d at width %d", st.id, st.end-st.begin, st.assigned)
	}
	r.running, r.now = keep, newTime
	for r.minAt < len(r.byMin) && r.ord[r.byMin[r.minAt]].begun {
		r.minAt++
	}
	if r.minAt < len(r.byMin) {
		bound = max(bound, newTime+r.ord[r.byMin[r.minAt]].pset.MinTime())
	}
	return bound, nil
}

// Verify is CheckInvariants plus the timing model: on top of every
// structural invariant (wires, overlaps, split-test accounting, power,
// precedence and mutual exclusion) it checks each core's BaseTime and
// PenaltyCycles against the scan lengths of a wrapper designed at its
// width, and the makespan against the last piece end. It designs every
// wrapper from scratch; Optimizer.Verify reads the Pareto sets' tables.
func Verify(s *soc.SOC, sch *Schedule) error {
	return verify(s, sch, designScan)
}

// Verify is the package-level Verify against the optimizer's SOC, with
// the scan lengths read from the Pareto sets' per-width tables; only a
// width above the optimizer's cap designs its wrapper.
func (o *Optimizer) Verify(sch *Schedule) error {
	return verify(o.soc, sch, func(c *soc.Core, width int) (int, int, error) {
		if width <= o.maxWidth {
			si, so := o.sets[c.ID].Scan(width)
			return si, so, nil
		}
		return designScan(c, width)
	})
}

// designScan designs core c's wrapper at width and returns its longest
// scan-in and scan-out lengths.
func designScan(c *soc.Core, width int) (scanIn, scanOut int, err error) {
	d, err := wrapper.DesignWrapper(c, width)
	if err != nil {
		return 0, 0, err
	}
	return d.ScanInMax, d.ScanOutMax, nil
}

// verify implements Verify with a pluggable source of each core's longest
// scan-in and scan-out at a width.
func verify(s *soc.SOC, sch *Schedule, scan func(*soc.Core, int) (int, int, error)) error {
	if err := CheckInvariants(s, sch); err != nil {
		return err
	}
	var makespan int64
	for _, c := range s.Cores {
		a := sch.Assignments[c.ID]
		si, so, err := scan(c, a.Width)
		if err != nil {
			return err
		}
		if t := wrapper.TestTime(si, so, c.Test.Patterns); t != a.BaseTime {
			return fmt.Errorf("sched: core %d base time %d, wrapper says %d", c.ID, a.BaseTime, t)
		}
		if pen := int64(a.Preemptions) * (int64(si) + int64(so)); pen != a.PenaltyCycles {
			return fmt.Errorf("sched: core %d penalty %d, want %d", c.ID, a.PenaltyCycles, pen)
		}
		makespan = max(makespan, a.End())
	}
	if makespan != sch.Makespan {
		return fmt.Errorf("sched: makespan %d, pieces end at %d", sch.Makespan, makespan)
	}
	return nil
}

// SweepBest runs the scheduler over the paper's parameter grid
// (percent 1..10, delta 0..4 by default) and returns the best schedule.
// Grids may be overridden; empty slices mean the defaults.
func SweepBest(s *soc.SOC, params Params, percents, deltas []int) (*Schedule, error) {
	o, err := New(s, params.Defaults().MaxWidth)
	if err != nil {
		return nil, err
	}
	return o.SweepBest(params, percents, deltas)
}

// SweepBest runs the optimizer over a (percent, delta, insert-slack) grid
// and returns the schedule with the smallest makespan. Ties break toward
// the first grid point tried. When params.InsertSlack is left at zero the
// slack dimension sweeps DefaultInsertSlacks (the paper tunes 3 but notes
// the best limit is SOC-dependent and user-settable); an explicit slack
// pins that dimension.
//
// The grid is deduplicated before anything runs: (percent, delta) only
// reach the scheduler through the per-core preferred widths, so two grid
// points with the same InsertSlack and the same preferred-width vector are
// the same scheduler run. The vectors are pure Pareto-set lookups: each
// core's α-preferred width once per percent, promoted once per delta, and
// one fingerprint per (percent, delta) point serves every slack. On the
// default 15×5×3 grid well over half the points typically collapse. Only
// the representatives (the first (percent, delta) point of each
// fingerprint) run, each at every slack in ascending order, and a grid
// point's Params are built only when it runs. Because duplicates have
// identical makespans, the first grid point attaining the minimum
// makespan is always a representative's.
//
// A representative's run at slack s′ is skipped when its run at a smaller
// slack s finished or was cut, and at every insertion step (Lines 13-14)
// that found no candidate saw no never-begun core passing State.OK whose
// preferred width exceeded the free wires by more than s and at most s′.
// Priority 3, widening, Update and the cutoff's bound do not read the
// slack. At a step where the s run found candidates, the s′ run's larger
// set adds only wider preferred widths, so it makes the same pick, the
// smallest preferred width; at every other step it finds none either. So
// the s′ run would repeat the s run step for step up to where that run
// ended: it would finish with the same makespan at a later grid index, or
// be cut no later, since its bar is no worse and its index is later.
// Either way it cannot win.
//
// A representative also stops as soon as it cannot win. It starts with the
// best (makespan, grid index) the sweep has finished, and after every
// Update it stops once a lower bound on its own makespan reaches that
// makespan, or passes it when its own grid index is the earlier one and a
// tie would go its way. The bound never exceeds the run's makespan, so the
// winner always runs to its end, and a run is stopped only after some run
// has finished. So the returned schedule — its Events and echoed Params
// included — and the error, when every point fails, are bit-identical to
// exhaustively running the grid.
//
// The representatives are independent, so they are fanned out over
// params.Workers goroutines (0 = GOMAXPROCS, 1 = sequential). The winner
// is picked by (makespan, grid index), so the outcome is also identical
// regardless of the worker count.
func (o *Optimizer) SweepBest(params Params, percents, deltas []int) (*Schedule, error) {
	return o.SweepBestContext(context.Background(), params, percents, deltas)
}

// SweepBestContext is SweepBest with cancellation: once ctx is done the
// sweep stops launching grid points, each running grid point stops within
// ctxCheckEvents Update events, and the sweep returns ctx's error, never
// the best of the runs that finished. A nil ctx behaves like
// context.Background(), and an uncancellable context leaves the result
// byte-identical to SweepBest.
//
// Grid points differ only in Percent, Delta and InsertSlack, none of which
// Setup reads, so the sweep sets up once and every run shares the checker
// and the capped sets. A worker takes a runner for each representative,
// reads the cores' preferred widths from its fingerprint and sorts the
// pending order once, then runs the slacks in ascending order on that one
// plan, skipping each run that would repeat a smaller slack's (see
// SweepBest). A run leaves a layout and a makespan in its runner; only the
// winner, picked by (makespan, grid index), is wired by Assemble. The
// runner holding the best so far stays out of reuse until a better run
// replaces it, and the worker whose run became the best copies the plan to
// an idle runner for its remaining slacks: a sweep makes at most one
// runner per worker plus one. When every run fails, the error of the
// lowest grid index is returned.
func (o *Optimizer) SweepBestContext(ctx context.Context, params Params, percents, deltas []int) (*Schedule, error) {
	best, _, err := o.sweep(ctx, params, percents, deltas)
	if err != nil {
		return nil, err
	}
	return best.assemble(o)
}

// SweepMakespan is the makespan of SweepBestContext's schedule, without
// the wiring. Assemble cannot fail on a classic layout: its tests hold at
// most TAMWidth wires at any instant, and update rejects a non-positive
// span, so the makespan is the schedule's.
func (o *Optimizer) SweepMakespan(ctx context.Context, params Params, percents, deltas []int) (int64, error) {
	best, _, err := o.sweep(ctx, params, percents, deltas)
	if err != nil {
		return 0, err
	}
	return best.now, nil
}

// sweepCounts is a classic sweep's work: its (percent, delta)
// representatives, the runs it started, the runs it skipped because a
// smaller slack's run repeats them, the runs the cutoff stopped, and the
// Update events of every run it started.
type sweepCounts struct {
	reps, runs, skipped, cut, events int
}

// sweep runs the grid for SweepBestContext and returns the runner holding
// the winner, with the sweep's work counts.
func (o *Optimizer) sweep(ctx context.Context, params Params, percents, deltas []int) (*runner, sweepCounts, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	chk, sets, err := o.Setup(params)
	if err != nil {
		return nil, sweepCounts{}, err
	}
	g := newGrid(params, percents, deltas, sets)
	sw := &sweepState{chk: chk, sets: sets, bar: unbeaten, errIdx: math.MaxInt, counts: sweepCounts{reps: len(g.reps)}}
	ForEachContext(ctx, params.Workers, len(g.reps), func(k int) { sw.rep(ctx, g, g.reps[k]) })
	if err := ctx.Err(); err != nil {
		return nil, sw.counts, err // a grid point was skipped or cut short
	}
	if sw.best == nil {
		return nil, sw.counts, sw.err
	}
	return sw.best, sw.counts, nil
}

// sweepState is what a sweep's workers share. mu guards every field after
// it.
type sweepState struct {
	chk  *constraint.Checker
	sets []*pareto.Set

	mu     sync.Mutex
	idle   []*runner // runners no worker holds and no best keeps
	best   *runner
	bar    rank  // best's rank
	err    error // the error of grid index errIdx, the lowest that failed
	errIdx int
	counts sweepCounts
}

// take returns an idle runner, or a new one; mu must be held.
func (sw *sweepState) take() *runner {
	n := len(sw.idle)
	if n == 0 {
		return newRunner(sw.chk, sw.sets)
	}
	r := sw.idle[n-1]
	sw.idle = sw.idle[:n-1]
	return r
}

// rep runs plane point pt at every slack of the grid in ascending order on
// one plan, skipping each run that would repeat a smaller slack's run (see
// SweepBest).
func (sw *sweepState) rep(ctx context.Context, g *grid, pt int) {
	sw.mu.Lock()
	r := sw.take()
	sw.mu.Unlock()
	r.plan(func(i int) int { return g.pref(pt, i) })
	skipped := 0
	over := math.MinInt // the last run's over when it finished or was cut
	for s := range g.slacks {
		idx, p := g.point(s, pt)
		if over > p.InsertSlack {
			skipped++
			continue
		}
		if ctx.Err() != nil {
			break
		}
		sw.mu.Lock()
		bar := sw.bar
		sw.mu.Unlock()
		done, err := r.run(ctx, p, idx, bar)
		over = r.over
		sw.mu.Lock()
		sw.counts.runs++
		sw.counts.events += r.events
		switch {
		case err != nil:
			over = math.MinInt
			if idx < sw.errIdx {
				sw.errIdx, sw.err = idx, err
			}
		case !done:
			sw.counts.cut++
		case (rank{r.now, idx}).less(sw.bar):
			prev := sw.best
			sw.best, sw.bar = r, rank{r.now, idx}
			if prev == nil {
				prev = sw.take()
			}
			prev.adopt(r)
			r = prev
		}
		sw.mu.Unlock()
	}
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.idle = append(sw.idle, r)
	sw.counts.skipped += skipped
}

// grid is a sweep's (percent, delta, slack) grid. Its points are numbered
// in sweep order, slack-major then percent then delta: point (s, a, d) has
// grid index (s·|percents| + a)·|deltas| + d. A preferred-width vector
// depends on (a, d) only, so the representatives are the plane points reps
// lists, each crossed with every slack.
type grid struct {
	params                   Params
	percents, deltas, slacks []int
	// keys holds one fingerprint per plane point a·|deltas| + d: every
	// core's preferred width at (percents[a], deltas[d]) in 16 bits,
	// big-endian, parallel to the capped sets.
	keys string
	n    int // cores
	// reps holds, ascending, the plane points whose fingerprint no earlier
	// plane point has.
	reps []int
}

// newGrid expands params and the percent/delta (and, when unset, slack)
// axes into a sweep's grid over the capped sets, and deduplicates its
// (percent, delta) plane by fingerprint. A fingerprint holds each
// preferred width in 16 bits, which New's width cap ensures. Every
// fingerprint lives in one string, so the map keys are substrings of it
// and the allocations do not depend on how many points are distinct.
func newGrid(params Params, percents, deltas []int, capped []*pareto.Set) *grid {
	if len(percents) == 0 {
		percents = DefaultPercents()
	}
	if len(deltas) == 0 {
		deltas = DefaultDeltas()
	}
	slacks := []int{params.InsertSlack}
	if params.InsertSlack == 0 {
		slacks = DefaultInsertSlacks()
	}
	n := len(capped)
	g := &grid{params: params, percents: percents, deltas: deltas, slacks: slacks, n: n}
	size := 2 * n
	buf := make([]byte, 0, len(percents)*len(deltas)*size)
	alpha := make([]int, n) // each core's α-preferred width, before its δ step
	for _, pct := range percents {
		for i, ps := range capped {
			alpha[i] = ps.AlphaWidth(pct)
		}
		for _, d := range deltas {
			for i, ps := range capped {
				buf = binary.BigEndian.AppendUint16(buf, uint16(ps.Promote(alpha[i], d)))
			}
		}
	}
	g.keys = string(buf)
	seen := make(map[string]bool, len(percents)*len(deltas))
	g.reps = make([]int, 0, len(percents)*len(deltas))
	for pt := range len(percents) * len(deltas) {
		if k := g.keys[pt*size : (pt+1)*size]; !seen[k] {
			seen[k] = true
			g.reps = append(g.reps, pt)
		}
	}
	return g
}

// pref returns core i's preferred width at plane point pt.
func (g *grid) pref(pt, i int) int {
	k := 2 * (pt*g.n + i)
	return int(g.keys[k])<<8 | int(g.keys[k+1])
}

// point returns the grid index and the Params of plane point pt at slack
// s.
func (g *grid) point(s, pt int) (int, Params) {
	p := g.params
	p.Percent, p.Delta, p.InsertSlack = g.percents[pt/len(g.deltas)], g.deltas[pt%len(g.deltas)], g.slacks[s]
	// Workers steers the sweep, not one run; clear it so the echoed
	// Schedule.Params is worker-count independent.
	p.Workers = 0
	return s*len(g.percents)*len(g.deltas) + pt, p
}

// ResolveWorkers maps a Params.Workers-style knob to a concrete worker
// count: 0 means GOMAXPROCS, anything below 1 collapses to 1.
func ResolveWorkers(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		return 1
	}
	return n
}

// ForEach runs fn(i) for every i in [0, n), fanning the calls out over
// ResolveWorkers(workers) goroutines. With one worker (or one item) it
// degenerates to a plain loop on the calling goroutine — exactly the
// sequential path. fn must be safe for concurrent invocation with
// distinct indices; indices are claimed atomically so each runs once.
func ForEach(workers, n int, fn func(int)) {
	ForEachContext(context.Background(), workers, n, fn) // Background never fails
}

// ForEachContext is ForEach with cancellation: each worker checks ctx
// before claiming the next index, so once ctx is done no new fn calls
// start; in-flight calls run to completion. It returns ctx's error when
// the loop was cut short, nil when every index ran. A nil ctx behaves like
// context.Background(), which makes ForEachContext(nil, ...) — and any
// never-cancelled context — index-for-index identical to ForEach.
//
// A panic in fn reaches the caller as on the sequential path: once a
// worker panics no new fn calls start, and after the other workers return
// the first panic value is raised again on the calling goroutine, where
// the caller's recover can see it.
func ForEachContext(ctx context.Context, workers, n int, fn func(int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	w := ResolveWorkers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicked atomic.Bool
	var first any // the first worker's panic value; read after wg.Wait
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil && panicked.CompareAndSwap(false, true) {
					first = p
				}
			}()
			for ctx.Err() == nil && !panicked.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(first)
	}
	return ctx.Err()
}

// DefaultPercents returns the α sweep grid: the paper's 1..10 plus a few
// larger values. The paper treats α as a free user parameter ("usually
// between 1 and 10"); on wide TAMs, larger α values let more cores run
// side-by-side at narrower widths and measurably reduce idle area, so the
// default grid extends past 10, a deviation from the paper's 1..10.
func DefaultPercents() []int {
	return []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 15, 20, 30, 40, 60}
}

// DefaultDeltas returns the δ sweep grid used in the paper: 0..4.
func DefaultDeltas() []int { return []int{0, 1, 2, 3, 4} }

// DefaultInsertSlacks returns the idle-time insertion limits SweepBest
// tries when the caller leaves Params.InsertSlack unset. The paper settles
// on 3 "after extensive experimentation" but explicitly allows the system
// integrator to supply a different limit per SOC family; on our benchmarks
// 8 and 16 win at several widths. The limits ascend, which SweepBest's
// skip of a run that repeats a smaller slack's relies on.
func DefaultInsertSlacks() []int { return []int{3, 8, 16} }

// DefaultPowerBudget returns the power budget used by the power-constrained
// experiments: factorPct percent of the largest single-test power (the
// paper sets a budget derived from per-test data bits per pattern but does
// not publish the constant; 125% binds firmly without starving any test).
func DefaultPowerBudget(s *soc.SOC, factorPct int) int {
	max := 0
	for _, c := range s.Cores {
		if p := c.TestPower(); p > max {
			max = p
		}
	}
	return (max*factorPct + 99) / 100
}

// LargerCorePreemptions builds the paper's Table-1 preemption policy
// under a per-core width cap of maxWidth: see
// Optimizer.LargerCorePreemptions, which it calls on a new Optimizer.
func LargerCorePreemptions(s *soc.SOC, maxWidth, n int) (map[int]int, error) {
	if maxWidth < 1 {
		return nil, fmt.Errorf("sched: non-positive max width %d", maxWidth)
	}
	o, err := New(s, maxWidth)
	if err != nil {
		return nil, err
	}
	return o.LargerCorePreemptions(n)
}

// LargerCorePreemptions builds the paper's Table-1 preemption policy from
// the optimizer's cached Pareto sets (width cap = the optimizer's
// maxWidth): a budget of n for the "larger cores" — those whose minimum
// testing time is at or above the median — and 0 for the rest.
func (o *Optimizer) LargerCorePreemptions(n int) (map[int]int, error) {
	type ct struct {
		id int
		t  int64
	}
	var all []ct
	for _, c := range o.soc.Cores {
		all = append(all, ct{c.ID, o.sets[c.ID].MinTime()})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].t < all[j].t })
	median := all[len(all)/2].t
	out := make(map[int]int, len(all))
	for _, e := range all {
		if e.t >= median {
			out[e.id] = n
		}
	}
	return out, nil
}
