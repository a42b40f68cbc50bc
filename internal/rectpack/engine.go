package rectpack

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/constraint"
	"repro/internal/lb"
	"repro/internal/obs"
	"repro/internal/pareto"
	"repro/internal/sched"
)

// mode selects one backend's configuration of the engine: its seed list
// and its annealing move budget.
type mode uint8

const (
	modePack    mode = iota // the 26 non-preemptive seeds, no moves
	modePreempt             // plus the 20 priority-preemption seeds, no moves
	modeAnneal              // plus the 2 ascending seeds, iterBudget(n) moves
)

// core is the immutable per-core packing input.
type core struct {
	id     int
	set    *pareto.Set // capped at min(MaxWidth, TAMWidth)
	budget int         // preemption budget: resumes after a gap
}

// buildCores runs the optimizer's shared set-up and assembles the
// id-ascending per-core inputs, their capped Pareto sets (the cores' own,
// in the same order) and the constraint checker.
func buildCores(opt *sched.Optimizer, params sched.Params) ([]*core, []*pareto.Set, *constraint.Checker, error) {
	chk, sets, err := opt.Setup(params)
	if err != nil {
		return nil, nil, nil, err
	}
	cores := make([]*core, len(sets))
	for i, set := range sets {
		cores[i] = &core{id: set.CoreID, set: set, budget: params.MaxPreemptions[set.CoreID]}
	}
	return cores, sets, chk, nil
}

// genome is one candidate solution. Slices are indexed by core position in
// the id-ascending core slice, except perm, which lists those positions in
// fill-priority order.
type genome struct {
	perm    []int
	cap     []int   // width cap; a core starts at SnapDown(min(cap, free))
	floor   []int   // quality floor; 0 = any width
	split   []int64 // forced first-segment cycles; 0 = run to completion
	preempt bool    // a blocked core may suspend weaker runners
}

func (g *genome) clone() *genome {
	c := *g
	c.perm = slices.Clone(g.perm)
	c.cap = slices.Clone(g.cap)
	c.floor = slices.Clone(g.floor)
	c.split = slices.Clone(g.split)
	return &c
}

// seeds returns the mode's seed genomes in tie-break order. Every mode
// starts with the 26 non-preemptive strategies: four decreasing size keys
// (testing time, rectangle area, serial length, width) crossed with the
// cap ladder (the full TAM, TAMWidth/2, /3, /4, and each core's min-area
// width), then time and area order under three quality floors. The
// priority-preemption seeds add floor-bearing strategies, since only a
// floor (or a width demand) can block a core and so trigger a preemption;
// they include ascending orders because budgets land on the larger cores,
// and small cores in front make the budgeted giants the low-priority
// victims. The annealer adds the two ascending orders without floors.
// Seeds share their slices; the search clones before mutating.
func seeds(cores []*core, tamWidth int, m mode) []*genome {
	n := len(cores)
	permBy := func(less func(a, b *pareto.Set) bool) []int {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		// cores is id-ascending, so a stable sort breaks ties toward the
		// lower core ID.
		sort.SliceStable(p, func(i, j int) bool { return less(cores[p[i]].set, cores[p[j]].set) })
		return p
	}
	byTime := permBy(func(a, b *pareto.Set) bool { return a.MinTime() > b.MinTime() })
	byArea := permBy(func(a, b *pareto.Set) bool { return a.MinArea() > b.MinArea() })
	bySerial := permBy(func(a, b *pareto.Set) bool { return a.Time(1) > b.Time(1) })
	byWidth := permBy(func(a, b *pareto.Set) bool {
		if a.MaxParetoWidth() != b.MaxParetoWidth() {
			return a.MaxParetoWidth() > b.MaxParetoWidth()
		}
		return a.MinTime() > b.MinTime()
	})
	ascTime := permBy(func(a, b *pareto.Set) bool { return a.MinTime() < b.MinTime() })
	ascArea := permBy(func(a, b *pareto.Set) bool { return a.MinArea() < b.MinArea() })

	perCore := func(f func(*pareto.Set) int) []int {
		out := make([]int, n)
		for i, c := range cores {
			out[i] = f(c.set)
		}
		return out
	}
	frac := func(den int) []int { return perCore(func(*pareto.Set) int { return max(tamWidth/den, 1) }) }
	quality := func(stretchPct int64) []int {
		return perCore(func(s *pareto.Set) int { return qualityWidth(s, stretchPct) })
	}
	full, zero, minArea := frac(1), make([]int, n), perCore(minAreaWidth)
	half, third, quarter := frac(2), frac(3), frac(4)
	q25, q50, q100 := quality(25), quality(50), quality(100)
	noSplit := make([]int64, n)
	mk := func(perm, caps, floors []int, preempt bool) *genome {
		return &genome{perm: perm, cap: caps, floor: floors, split: noSplit, preempt: preempt}
	}

	var out []*genome
	for _, perm := range [][]int{byTime, byArea, bySerial, byWidth} {
		for _, caps := range [][]int{full, half, third, quarter, minArea} {
			out = append(out, mk(perm, caps, zero, false))
		}
	}
	for _, perm := range [][]int{byTime, byArea} {
		for _, floors := range [][]int{q25, q50, q100} {
			out = append(out, mk(perm, full, floors, false))
		}
	}
	switch m {
	case modePreempt:
		widest := perCore((*pareto.Set).MaxParetoWidth)
		for _, perm := range [][]int{byTime, byArea, ascTime, ascArea} {
			for _, floors := range [][]int{q25, q50, q100, minArea, widest} {
				out = append(out, mk(perm, full, floors, true))
			}
		}
	case modeAnneal:
		out = append(out, mk(ascTime, full, zero, false), mk(ascArea, full, zero, false))
	}
	return out
}

// qualityWidth returns the smallest width whose time is within stretchPct%
// of the core's best time: starting narrower than this is worse than
// waiting.
func qualityWidth(set *pareto.Set, stretchPct int64) int {
	limit := set.MinTime() + set.MinTime()*stretchPct/100
	for _, p := range set.Points {
		if p.Time <= limit {
			return p.Width
		}
	}
	return set.MaxParetoWidth()
}

// minAreaWidth returns the Pareto width minimizing w·T(w).
func minAreaWidth(set *pareto.Set) int {
	best := set.Points[0].Width
	bestArea := int64(set.Points[0].Width) * set.Points[0].Time
	for _, p := range set.Points[1:] {
		if a := int64(p.Width) * p.Time; a < bestArea {
			best, bestArea = p.Width, a
		}
	}
	return best
}

// simState is a core's phase within one decode.
type simState uint8

const (
	simUnstarted simState = iota
	simRunning
	simSuspended
	simDone
)

// simCore is the per-core state of one decode.
type simCore struct {
	state     simState
	width     int // fixed at the first start (the vertical-split rule)
	remaining int64
	segStart  int64
	yieldAt   int64 // forced split instant; -1 = none
	yieldedAt int64 // instant of the last forced split (no same-instant resume)
	at        int64 // while running: the instant due returns
	segs      []sched.Span
	preempts  int
	penalty   int64
	free      int // free wires when the core first started
	floorFree int // the most free wires at a visit its floor blocked; 0 = none
}

// start opens the core's first segment at width w and arms its split gene
// when the core has budget; it reports whether a split was armed.
func (s *simCore) start(c *core, w int, now, split int64) bool {
	s.state = simRunning
	s.width = w
	s.remaining = c.set.Time(w)
	s.segStart = now
	s.yieldAt = -1
	if split > 0 && c.budget > 0 && split < s.remaining {
		s.yieldAt = now + split
		return true
	}
	return false
}

// suspend closes the open segment at now, freeing the core's wires.
func (s *simCore) suspend(now int64) {
	s.closeSeg(now)
	s.state = simSuspended
	s.yieldAt = -1
}

// resume reopens a suspended core at its fixed width. A resume after a gap
// is a preemption and pays the wrapper's penalty; a victim re-admitted at
// the instant it was suspended merges back into its segment for free.
func (s *simCore) resume(c *core, now int64) {
	if s.segs[len(s.segs)-1].End < now {
		pen := c.set.Penalty(s.width)
		s.preempts++
		s.penalty += pen
		s.remaining += pen
	}
	s.state = simRunning
	s.segStart = now
}

// closeSeg ends the open segment at end, merging seamless continuations so
// preemption gaps are the only split points.
func (s *simCore) closeSeg(end int64) {
	s.remaining -= end - s.segStart
	if n := len(s.segs); n > 0 && s.segs[n-1].End == s.segStart {
		s.segs[n-1].End = end
	} else {
		s.segs = append(s.segs, sched.Span{Start: s.segStart, End: end})
	}
}

// due returns the instant of the running core's next event, and whether
// that event is its forced split, armed before the segment ends, rather
// than the segment's end.
func (s *simCore) due() (int64, bool) {
	end := s.segStart + s.remaining
	if s.yieldAt >= 0 && s.yieldAt < end {
		return s.yieldAt, true
	}
	return end, false
}

// decoder turns the genomes of one search into placements. It owns all
// decode scratch: the per-core simulation states, whose segment slices are
// truncated and reused, one constraint.State, preemptFor's victim list,
// and three index lists in one backing array: rank, each core's position
// in the genome's priority order; wait, the waiting (unstarted or
// suspended) cores by rank; and running, the running cores by due
// instant. A warmed decode therefore allocates nothing, and a decode's
// result aliases that scratch until the next decode. A decoder is not
// safe for concurrent use; each search owns one.
type decoder struct {
	cores    []*core
	tamWidth int
	cs       *constraint.State
	sim      []simCore // parallel to cores
	rank     []int     // parallel to cores
	wait     []int     // capacity len(cores)
	running  []int     // capacity len(cores)
	victims  []int
}

// newDecoder returns the decoder of one search over cores at TAM width
// tamWidth.
func newDecoder(cores []*core, chk *constraint.Checker, tamWidth int) *decoder {
	n := len(cores)
	lists := make([]int, 3*n)
	return &decoder{cores: cores, tamWidth: tamWidth, cs: chk.NewState(), sim: make([]simCore, n),
		rank: lists[:n], wait: lists[n : n : 2*n], running: lists[2*n : 2*n]}
}

// startTrace is what one decode saw of a core before it started: its
// width and the free wires at its start, and the most free wires at a
// visit its floor blocked (0 when none did). anneal answers cap and floor
// moves from it without decoding them (see undo.keepsDecode).
type startTrace struct{ width, free, floorFree int }

// trace copies every core's startTrace of the last decode into dst, which
// is parallel to the cores.
func (d *decoder) trace(dst []startTrace) {
	for i := range d.sim {
		s := &d.sim[i]
		dst[i] = startTrace{width: s.width, free: s.free, floorFree: s.floorFree}
	}
}

// decoded is one genome's simulation outcome before wire assignment.
type decoded struct {
	sim      []simCore // parallel to the id-ascending core slice
	makespan int64
	events   int
	splits   int
}

// errCut is decode's answer when a test it starts would end past its
// makespan limit. It is one package-level value, so a cut allocates
// nothing.
var errCut = errors.New("rectpack: makespan limit exceeded")

// decode runs the genome through the event-driven best-fit-decreasing
// packer and returns the resulting placement, or an error when the genome
// is infeasible (a constraint deadlock, or floors no free width meets).
// The result aliases the decoder's scratch and stays valid only until the
// next decode; emit may hand it to Assemble, which copies every span.
// At every event each waiting core is offered, in genome priority order,
// the largest Pareto width that fits the free wires under its cap,
// subject to its floor and the constraint checker. A core whose split gene
// fires suspends itself mid-run; with the genome's preemption bit set, a
// blocked core may instead suspend weaker runners (preemptFor). Suspended
// cores resume at their fixed width, paying the wrapper's preemption
// penalty for the gap.
//
// The priority pass walks only d.wait, the unstarted and suspended cores
// in priority order. A core leaves it when it starts or resumes and goes
// back in at its rank (park) when its split gene fires or preemptFor
// suspends it; a victim ranks after the blocked core, so the same pass
// still reaches it. The pass stops once no wire is free and the genome
// has no preemption bit, since then no core can start or resume. An
// unstarted core's visit tests its floor against the free wires and the
// constraint checker before it snaps its cap: a floor above the free
// wires blocks whatever the cap. Each core's simCore records the free
// wires at its start and the most free wires at a visit its floor
// blocked, the startTrace anneal's skip test reads; a visit the floor
// blocks before the checker is asked may be one the checker would also
// have blocked, which only makes that test stricter. d.running
// is kept in ascending due instant, so the event step takes the next
// instant from its head and retires or suspends the prefix due then. Its
// constraint.State updates are counter changes, and a parked core goes in
// at its rank, so the order of cores due at one instant does not matter.
//
// decode returns errCut as soon as a core starts whose test would end
// after limit. A started test never ends sooner than its start plus its
// time at the chosen width, so a cut genome's full decode either fails or
// has a makespan above limit; with limit math.MaxInt64 no genome is cut.
func (d *decoder) decode(g *genome, limit int64) (decoded, error) {
	cores, sim, cs := d.cores, d.sim, d.cs
	for i := range sim {
		sim[i] = simCore{segs: sim[i].segs[:0]} // keep the segments' storage
	}
	cs.Reset()
	for r, ci := range g.perm {
		d.rank[ci] = r
	}
	d.wait = append(d.wait[:0], g.perm...)
	d.running = d.running[:0]
	var now int64
	avail := d.tamWidth
	left := len(cores)
	events := 0
	splits := 0
	for left > 0 {
		events++
		wait := d.wait
		kept := 0
		for pos := 0; pos < len(wait); pos++ { // preemptFor may park victims after pos
			if avail == 0 && !g.preempt {
				kept += copy(wait[kept:], wait[pos:])
				break
			}
			ci := wait[pos]
			wait[kept] = ci // kept <= pos, so the entries after pos are intact
			kept++
			s := &sim[ci]
			c := cores[ci]
			if s.state == simSuspended {
				// A forced split resumes only after a gap, or it would undo
				// itself; a victim may come back at once (see resume).
				if now <= s.yieldedAt {
					continue
				}
				if avail < s.width || !cs.OK(c.id) {
					if !g.preempt {
						continue
					}
					free, ok := d.preemptFor(g.perm, pos, s.width, avail, now)
					if !ok {
						continue
					}
					avail, wait = free, d.wait
				}
				s.resume(c, now)
			} else { // unstarted
				floor := g.floor[ci]
				w, ok := 0, false
				if floor > avail {
					s.floorFree = max(s.floorFree, avail)
				} else if cs.OK(c.id) {
					if w, ok = c.set.SnapDown(min(g.cap[ci], avail)); ok && w < floor {
						ok = false
						s.floorFree = max(s.floorFree, avail)
					}
				}
				if !ok {
					if !g.preempt {
						continue
					}
					// Blocked: aim for the full target width, victims
					// willing.
					if w, ok = c.set.SnapDown(g.cap[ci]); !ok || w < floor {
						continue
					}
					free, ok := d.preemptFor(g.perm, pos, w, avail, now)
					if !ok {
						continue
					}
					avail, wait = free, d.wait
					splits++
				}
				s.free = avail
				if s.start(c, w, now, g.split[ci]) {
					splits++
				}
				if now+s.remaining > limit {
					return decoded{}, errCut
				}
			}
			kept--
			cs.Start(c.id)
			avail -= s.width
			d.run(ci)
		}
		d.wait = wait[:kept]
		// Advance to the earliest segment end or forced split, then retire
		// or suspend everything landing there.
		if len(d.running) == 0 {
			return decoded{}, fmt.Errorf("rectpack: no core can run at t=%d with %d cores left", now, left)
		}
		next := sim[d.running[0]].at
		landed := 0
		for _, ci := range d.running {
			s := &sim[ci]
			if s.at != next {
				break
			}
			landed++
			avail += s.width
			if _, split := s.due(); split {
				s.suspend(next)
				s.yieldedAt = next
				cs.Stop(cores[ci].id)
				d.park(ci, 0)
			} else {
				s.closeSeg(next)
				s.state = simDone
				cs.Complete(cores[ci].id)
				left--
			}
		}
		d.running = d.running[:copy(d.running, d.running[landed:])]
		now = next
	}
	return decoded{sim: sim, makespan: now, events: events, splits: splits}, nil
}

// run adds ci, which has just started or resumed, to d.running at its due
// instant, after the cores due no later.
func (d *decoder) run(ci int) {
	s := &d.sim[ci]
	s.at, _ = s.due()
	r := d.running[:len(d.running)+1]
	j := len(r) - 1
	for ; j > 0 && d.sim[r[j-1]].at > s.at; j-- {
		r[j] = r[j-1]
	}
	r[j] = ci
	d.running = r
}

// park puts ci, which has just been suspended, back into d.wait at its
// rank, no earlier than index from.
func (d *decoder) park(ci, from int) {
	w := d.wait[:len(d.wait)+1]
	j := len(w) - 1
	for ; j > from && d.rank[w[j-1]] > d.rank[ci]; j-- {
		w[j] = w[j-1]
	}
	w[j] = ci
	d.wait = w
}

// preemptFor tries to free want wires for the blocked core d.wait[pos] by
// suspending strictly weaker runners — later in the priority order perm —
// that have budget left and have run this segment, weakest first, so the
// strongest runners keep their wires. It finds them by walking perm back
// to the blocked core's rank. On success the suspensions are committed,
// the victims leave d.running and are parked in d.wait after pos, where
// the priority pass still reaches them, and the new free-wire count (>=
// want) is returned with ok true. When too few wires can be freed, or the
// constraint checker refuses the core even with the victims gone, nothing
// changes and ok is false.
func (d *decoder) preemptFor(perm []int, pos, want, avail int, now int64) (int, bool) {
	cores, sim, cs := d.cores, d.sim, d.cs
	blocked := d.wait[pos]
	victims := d.victims[:0]
	freed := 0
	for vpos := len(perm) - 1; vpos > d.rank[blocked] && avail+freed < want; vpos-- {
		vi := perm[vpos]
		if v := &sim[vi]; v.state == simRunning && v.preempts < cores[vi].budget && v.segStart < now {
			victims = append(victims, vi)
			freed += v.width
		}
	}
	d.victims = victims
	if avail+freed < want {
		return avail, false
	}
	for _, vi := range victims {
		cs.Stop(cores[vi].id)
	}
	if !cs.OK(cores[blocked].id) {
		for _, vi := range victims {
			cs.Start(cores[vi].id)
		}
		return avail, false
	}
	for _, vi := range victims {
		sim[vi].suspend(now)
		d.park(vi, pos+1)
	}
	d.running = slices.DeleteFunc(d.running, func(ci int) bool { return sim[ci].state != simRunning })
	return avail + freed, true
}

// emit lays a decoded solution onto concrete TAM wires with the
// optimizer's shared assembler, which places a resumed segment on its
// previous wires when it can. Split layouts are busier than one-piece
// ones, so first-fit placement can run out of simultaneously free wires;
// the assembler then fails, and the search falls back to its next
// candidate.
func emit(opt *sched.Optimizer, params sched.Params, cores []*core, res decoded) (*sched.Schedule, error) {
	layouts := make([]sched.CoreLayout, len(cores))
	for i, c := range cores {
		s := &res.sim[i]
		layouts[i] = sched.CoreLayout{ID: c.id, Width: s.width, Spans: s.segs, Preemptions: s.preempts, Penalty: s.penalty}
	}
	sch, err := opt.Assemble(params, layouts)
	if err != nil {
		return nil, err
	}
	sch.Events = res.events
	return sch, nil
}

// search runs the engine in one backend's mode: it decodes the mode's
// seeds, anneals outward from the best of them when the mode has a move
// budget, until that budget runs out or its best reaches the paper's
// LB(W), and emits the best placeable solution. Emission is best-first:
// the improvement chain newest-first, then the remaining feasible seeds by
// (makespan, seed index), so a layout wire assignment rejects falls back
// to the next candidate. Deterministic under a fixed Params.Seed.
func search(ctx context.Context, sp *obs.Span, opt *sched.Optimizer, params sched.Params, m mode) (*sched.Schedule, error) {
	params = params.Defaults()
	cores, sets, chk, err := buildCores(opt, params)
	if err != nil {
		return nil, err
	}
	dec := newDecoder(cores, chk, params.TAMWidth)

	gs := seeds(cores, params.TAMWidth, m)
	costs := make([]int64, len(gs)) // -1 = infeasible
	best := -1
	var firstErr error
	for i, g := range gs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := dec.decode(g, math.MaxInt64)
		if err != nil {
			costs[i] = -1
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		costs[i] = res.makespan
		if best < 0 || res.makespan < costs[best] {
			best = i
		}
	}
	if best < 0 {
		return nil, fmt.Errorf("rectpack: every seed infeasible: %w", firstErr)
	}
	chain := []*genome{gs[best]} // oldest first
	if m == modeAnneal {
		floor := lb.FromCapped(sets, params.TAMWidth).Value()
		if chain, err = anneal(ctx, sp, dec, params, gs[best], costs[best], floor); err != nil {
			return nil, err
		}
	}
	slices.Reverse(chain)
	rest := make([]int, 0, len(gs))
	for i := range gs {
		if i != best && costs[i] >= 0 {
			rest = append(rest, i)
		}
	}
	sort.SliceStable(rest, func(a, b int) bool { return costs[rest[a]] < costs[rest[b]] })
	for _, i := range rest {
		chain = append(chain, gs[i])
	}

	sp.SetAttr("seeds", len(gs))
	for _, g := range chain {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := dec.decode(g, math.MaxInt64)
		if err == nil {
			var sch *sched.Schedule
			if sch, err = emit(opt, params, cores, res); err == nil {
				sp.SetAttr("makespan", sch.Makespan)
				sp.SetAttr("splits", res.splits)
				return sch, nil
			}
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return nil, fmt.Errorf("rectpack: no solution placeable: %w", firstErr)
}
