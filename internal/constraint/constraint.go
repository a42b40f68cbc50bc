// Package constraint models the scheduling constraints of the DAC 2002
// framework (Problem 2): precedence constraints between core tests,
// concurrency (mutual-exclusion) constraints — including those implied by
// core hierarchy (a parent's Intest conflicts with its children's tests) —
// a maximum power budget, BIST-engine resource conflicts, and per-core
// preemption limits. It corresponds to the Conflict subroutine (Fig. 7).
package constraint

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/soc"
)

// Checker is the immutable constraint model of one SOC under one Config,
// stored densely by core ID (1..n, the IDs soc.Validate guarantees):
// per-core test power and BIST engine, predecessor and successor lists,
// and one exclusion list per core that merges its concurrency partners
// (explicit ones, plus hierarchy ones unless IgnoreHierarchy) with the
// cores sharing its BIST engine. It is safe for concurrent use. A
// schedule under construction keeps its running and complete sets in a
// State (NewState), which answers the Conflict subroutine in O(1);
// ValidateTimeline checks a finished schedule against the same lists.
type Checker struct {
	// power[id] is core id's test power; index 0 is unused.
	power []int
	// engine[id] is core id's BIST engine, or -1.
	engine []int
	// preds lists the cores that must complete before id may begin, in
	// declaration order; succs is its transpose.
	preds, succs adjacency
	// excl lists, ascending, the cores that may not run while id runs. It
	// is symmetric: b is in a's row exactly when a is in b's.
	excl adjacency
	// powerMax is the budget; 0 disables the check.
	powerMax int
}

// Config tunes checker construction.
type Config struct {
	// PowerMax overrides the SOC's power budget when > 0. When both are
	// zero the power check is disabled.
	PowerMax int
	// IgnoreHierarchy suppresses the implicit parent/child concurrency
	// constraints (useful for ablation).
	IgnoreHierarchy bool
}

// adjacency holds one list per core in a single backing slice: core id's
// list is list[start[id]:start[id+1]].
type adjacency struct {
	start, list []int
}

// newAdjacency builds the lists of cores 1..n from the edges that edges
// passes to add, keeping each list in emission order. edges runs twice:
// once to size the lists and once to fill them.
func newAdjacency(n int, edges func(add func(from, to int))) adjacency {
	start := make([]int, n+2)
	edges(func(from, _ int) { start[from+1]++ })
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	list := make([]int, start[n+1])
	// Fill with start[id] as core id's cursor; afterwards start[id] holds
	// the end of id's list, so shift everything back by one.
	edges(func(from, to int) {
		list[start[from]] = to
		start[from]++
	})
	copy(start[1:], start[:n+1])
	start[0] = 0
	return adjacency{start: start, list: list}
}

func (a adjacency) row(id int) []int { return a.list[a.start[id]:a.start[id+1]] }

// New builds a Checker for the SOC, whose cores must carry IDs 1..n in
// order. It derives hierarchy concurrency constraints, indexes explicit
// constraints and BIST-engine sharing, and rejects precedence cycles and
// budgets no single test can meet.
func New(s *soc.SOC, cfg Config) (*Checker, error) {
	n := len(s.Cores)
	known := func(id int) bool { return id >= 1 && id <= n }
	c := &Checker{
		power:    make([]int, n+1),
		engine:   make([]int, n+1),
		powerMax: s.PowerMax,
	}
	if cfg.PowerMax > 0 {
		c.powerMax = cfg.PowerMax
	}
	var bist []int // cores with a BIST engine, grouped by engine below
	for i, core := range s.Cores {
		if core.ID != i+1 {
			return nil, fmt.Errorf("constraint: core at index %d has ID %d, want %d", i, core.ID, i+1)
		}
		c.power[core.ID] = core.TestPower()
		c.engine[core.ID] = core.Test.BISTEngine
		if core.Test.BISTEngine >= 0 {
			bist = append(bist, core.ID)
		}
	}
	for _, p := range s.Precedences {
		if !known(p.Before) || !known(p.After) {
			return nil, fmt.Errorf("constraint: precedence %d<%d names an unknown core", p.Before, p.After)
		}
	}
	conc := s.Concurrencies
	if !cfg.IgnoreHierarchy {
		conc = append(slices.Clip(conc), s.HierarchyConcurrencies()...)
	}
	for _, cc := range conc {
		if !known(cc.A) || !known(cc.B) {
			return nil, fmt.Errorf("constraint: concurrency %d~%d names an unknown core", cc.A, cc.B)
		}
	}
	slices.SortStableFunc(bist, func(a, b int) int { return cmp.Compare(c.engine[a], c.engine[b]) })

	c.preds = newAdjacency(n, func(add func(from, to int)) {
		for _, p := range s.Precedences {
			add(p.After, p.Before)
		}
	})
	c.succs = newAdjacency(n, func(add func(from, to int)) {
		for _, p := range s.Precedences {
			add(p.Before, p.After)
		}
	})
	c.excl = newAdjacency(n, func(add func(from, to int)) {
		for _, cc := range conc {
			add(cc.A, cc.B)
			add(cc.B, cc.A)
		}
		// Every pair inside each run of cores sharing an engine.
		for lo := 0; lo < len(bist); {
			hi := lo + 1
			for hi < len(bist) && c.engine[bist[hi]] == c.engine[bist[lo]] {
				hi++
			}
			for _, a := range bist[lo:hi] {
				for _, b := range bist[lo:hi] {
					if a != b {
						add(a, b)
					}
				}
			}
			lo = hi
		}
	})
	for id := 1; id <= n; id++ {
		slices.Sort(c.excl.row(id))
	}

	if err := c.checkAcyclic(); err != nil {
		return nil, err
	}
	if err := c.checkFeasible(s); err != nil {
		return nil, err
	}
	return c, nil
}

// checkAcyclic rejects precedence cycles via Kahn's algorithm.
func (c *Checker) checkAcyclic() error {
	n := len(c.power) - 1
	indeg := make([]int, n+1)
	queue := make([]int, 0, n)
	for id := 1; id <= n; id++ {
		if indeg[id] = len(c.preds.row(id)); indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	for i := 0; i < len(queue); i++ {
		for _, nx := range c.succs.row(queue[i]) {
			if indeg[nx]--; indeg[nx] == 0 {
				queue = append(queue, nx)
			}
		}
	}
	if len(queue) != n {
		return fmt.Errorf("constraint: precedence constraints contain a cycle")
	}
	return nil
}

// checkFeasible rejects budgets no single test can meet.
func (c *Checker) checkFeasible(s *soc.SOC) error {
	if c.powerMax == 0 {
		return nil
	}
	for _, core := range s.Cores {
		if p := c.power[core.ID]; p > c.powerMax {
			return fmt.Errorf("constraint: core %d (%s) dissipates %d > power budget %d; no schedule exists",
				core.ID, core.Name, p, c.powerMax)
		}
	}
	return nil
}

// sharesEngine reports whether cores a and b use the same BIST engine.
func (c *Checker) sharesEngine(a, b int) bool {
	return c.engine[a] >= 0 && c.engine[a] == c.engine[b]
}

// State is the running and complete sets of one schedule under
// construction, kept as three counters per core so that OK is O(1) and
// no method allocates: predecessors not yet complete, running cores that
// exclude the core, and the running cores' total power. A State belongs
// to one run at a time (Reset starts the next) and is not safe for
// concurrent use.
type State struct {
	chk   *Checker
	cores []coreState // indexed by core ID
	power int         // total power of the running cores
}

// coreState is one core's entry in a State.
type coreState struct {
	waiting  int // predecessors not yet complete
	excluded int // running cores that exclude this one
	running  bool
	complete bool
}

// NewState returns a State with no core running or complete.
func (c *Checker) NewState() *State {
	st := &State{chk: c, cores: make([]coreState, len(c.power))}
	st.Reset()
	return st
}

// Reset returns the State to NewState's: no core running or complete. It
// reuses the State's storage and does not allocate, so a search that
// decodes many candidates needs only one State.
func (st *State) Reset() {
	st.power = 0
	for id := range st.cores {
		st.cores[id] = coreState{waiting: len(st.chk.preds.row(id))}
	}
}

// OK reports whether core id, which must not be running, may start (or
// resume) now. It equals Conflict(id) == "" without building the reason.
func (st *State) OK(id int) bool {
	cs := &st.cores[id]
	return cs.waiting == 0 && cs.excluded == 0 &&
		(st.chk.powerMax == 0 || st.power+st.chk.power[id] <= st.chk.powerMax)
}

// Start records that core id, which must not be running, now runs.
func (st *State) Start(id int) {
	st.cores[id].running = true
	st.power += st.chk.power[id]
	for _, o := range st.chk.excl.row(id) {
		st.cores[o].excluded++
	}
}

// Stop records that the running core id no longer runs (it is suspended
// or was only tentatively running).
func (st *State) Stop(id int) {
	st.cores[id].running = false
	st.power -= st.chk.power[id]
	for _, o := range st.chk.excl.row(id) {
		st.cores[o].excluded--
	}
}

// Complete records that core id has finished its test, stopping it first
// when it is running. Each core completes at most once.
func (st *State) Complete(id int) {
	if st.cores[id].running {
		st.Stop(id)
	}
	st.cores[id].complete = true
	for _, o := range st.chk.succs.row(id) {
		st.cores[o].waiting--
	}
}

// Conflict reports why core id, which must not be running, may not start
// now, or "" when it may. It mirrors the paper's Conflict subroutine:
// precedence (lines 2-3), concurrency (4-5), power (6-9), and BIST-scan
// conflicts (10-11). It builds its reason from scratch; OK is the
// allocation-free test for the inner loops.
func (st *State) Conflict(id int) string {
	c := st.chk
	for _, pre := range c.preds.row(id) {
		if !st.cores[pre].complete {
			return fmt.Sprintf("precedence: core %d must complete before core %d", pre, id)
		}
	}
	for _, o := range c.excl.row(id) {
		if st.cores[o].running && !c.sharesEngine(id, o) {
			return fmt.Sprintf("concurrency: core %d may not run with core %d", id, o)
		}
	}
	if sum := st.power + c.power[id]; c.powerMax > 0 && sum > c.powerMax {
		return fmt.Sprintf("power: %d exceeds budget %d", sum, c.powerMax)
	}
	for _, o := range c.excl.row(id) {
		if st.cores[o].running {
			return fmt.Sprintf("bist: cores %d and %d share BIST engine %d", id, o, c.engine[id])
		}
	}
	return ""
}

// ValidateTimeline checks a completed schedule: for every core interval
// set, precedence, concurrency, BIST and power constraints must hold at
// every instant. intervals maps core ID to its (start, end) pieces; IDs
// outside the SOC are ignored.
func (c *Checker) ValidateTimeline(intervals map[int][]Interval) error {
	n := len(c.power) - 1
	// Precedence: After's first start must be >= Before's last end.
	for after := 1; after <= n; after++ {
		ai := intervals[after]
		if len(ai) == 0 {
			continue
		}
		for _, b := range c.preds.row(after) {
			bi := intervals[b]
			if len(bi) == 0 {
				return fmt.Errorf("constraint: core %d scheduled but predecessor %d never runs", after, b)
			}
			if first(ai) < last(bi) {
				return fmt.Errorf("constraint: core %d starts at %d before predecessor %d ends at %d",
					after, first(ai), b, last(bi))
			}
		}
	}
	// Pairwise checks at overlap: concurrency + BIST.
	for a := 1; a <= n; a++ {
		for _, b := range c.excl.row(a) {
			if b <= a || !overlaps(intervals[a], intervals[b]) {
				continue
			}
			if c.sharesEngine(a, b) {
				return fmt.Errorf("constraint: BIST engine %d shared by overlapping cores %d and %d", c.engine[a], a, b)
			}
			return fmt.Errorf("constraint: concurrency violation: cores %d and %d overlap", a, b)
		}
	}
	// Power: sweep events.
	if c.powerMax > 0 {
		type ev struct {
			t     int64
			delta int
		}
		var evs []ev
		for id := 1; id <= n; id++ {
			for _, iv := range intervals[id] {
				evs = append(evs, ev{iv.Start, c.power[id]}, ev{iv.End, -c.power[id]})
			}
		}
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].t != evs[j].t {
				return evs[i].t < evs[j].t
			}
			return evs[i].delta < evs[j].delta // ends before starts at same t
		})
		sum := 0
		for _, e := range evs {
			sum += e.delta
			if sum > c.powerMax {
				return fmt.Errorf("constraint: power %d exceeds budget %d at time %d", sum, c.powerMax, e.t)
			}
		}
	}
	return nil
}

// Interval is a [Start, End) time span.
type Interval struct{ Start, End int64 }

func first(ivs []Interval) int64 {
	m := ivs[0].Start
	for _, iv := range ivs {
		if iv.Start < m {
			m = iv.Start
		}
	}
	return m
}

func last(ivs []Interval) int64 {
	var m int64
	for _, iv := range ivs {
		if iv.End > m {
			m = iv.End
		}
	}
	return m
}

func overlaps(a, b []Interval) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Start < y.End && y.Start < x.End {
				return true
			}
		}
	}
	return false
}
