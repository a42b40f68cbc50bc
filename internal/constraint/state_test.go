package constraint_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"repro/internal/constraint"
	"repro/internal/corpus"
	"repro/internal/soc"
)

// refChecker is the map-based Conflict subroutine that constraint.State
// replaced, kept as an independent reference: it reads the SOC directly
// and scans the running set on every question.
type refChecker struct {
	preds    map[int][]int
	conc     map[int]map[int]bool
	engine   map[int]int
	power    map[int]int
	powerMax int
}

func newRef(s *soc.SOC, cfg constraint.Config) *refChecker {
	c := &refChecker{
		preds:    make(map[int][]int),
		conc:     make(map[int]map[int]bool),
		engine:   make(map[int]int),
		power:    make(map[int]int),
		powerMax: s.PowerMax,
	}
	if cfg.PowerMax > 0 {
		c.powerMax = cfg.PowerMax
	}
	for _, core := range s.Cores {
		c.engine[core.ID] = core.Test.BISTEngine
		c.power[core.ID] = core.TestPower()
	}
	for _, p := range s.Precedences {
		c.preds[p.After] = append(c.preds[p.After], p.Before)
	}
	addConc := func(a, b int) {
		if c.conc[a] == nil {
			c.conc[a] = make(map[int]bool)
		}
		if c.conc[b] == nil {
			c.conc[b] = make(map[int]bool)
		}
		c.conc[a][b] = true
		c.conc[b][a] = true
	}
	for _, cc := range s.Concurrencies {
		addConc(cc.A, cc.B)
	}
	if !cfg.IgnoreHierarchy {
		for _, cc := range s.HierarchyConcurrencies() {
			addConc(cc.A, cc.B)
		}
	}
	return c
}

func (c *refChecker) conflict(id int, complete, running map[int]bool) string {
	for _, pre := range c.preds[id] {
		if !complete[pre] {
			return fmt.Sprintf("precedence: core %d must complete before core %d", pre, id)
		}
	}
	for other := range running {
		if c.conc[id][other] {
			return fmt.Sprintf("concurrency: core %d may not run with core %d", id, other)
		}
	}
	if c.powerMax > 0 {
		sum := c.power[id]
		for other := range running {
			sum += c.power[other]
		}
		if sum > c.powerMax {
			return fmt.Sprintf("power: %d exceeds budget %d", sum, c.powerMax)
		}
	}
	if e := c.engine[id]; e >= 0 {
		for other := range running {
			if c.engine[other] == e {
				return fmt.Sprintf("bist: cores %d and %d share BIST engine %d", id, other, e)
			}
		}
	}
	return ""
}

// regime is one constraint configuration of a corpus SOC.
type regime struct {
	name string
	soc  *soc.SOC
	cfg  constraint.Config
}

// regimes returns the scenario's own configuration plus variants with
// the power budget removed and set to the largest single-test power, each
// with and without hierarchy exclusions.
func regimes(t *testing.T, sc corpus.Scenario) []regime {
	t.Helper()
	s := sc.Build()
	p, err := sc.ResolveParams(s)
	if err != nil {
		t.Fatal(err)
	}
	unbudgeted := s.Clone()
	unbudgeted.PowerMax = 0
	tight := 1
	for _, c := range s.Cores {
		tight = max(tight, c.TestPower())
	}
	var out []regime
	for _, ignore := range []bool{p.IgnoreHierarchy, !p.IgnoreHierarchy} {
		out = append(out,
			regime{fmt.Sprintf("own/ignoreHierarchy=%v", ignore), s, constraint.Config{PowerMax: p.PowerMax, IgnoreHierarchy: ignore}},
			regime{fmt.Sprintf("unbudgeted/ignoreHierarchy=%v", ignore), unbudgeted, constraint.Config{IgnoreHierarchy: ignore}},
			regime{fmt.Sprintf("tight/ignoreHierarchy=%v", ignore), s, constraint.Config{PowerMax: tight, IgnoreHierarchy: ignore}},
		)
	}
	return out
}

// TestStateMatchesReference drives seeded random Start/Stop/Complete
// sequences, including the packing decoder's stop, check, restart
// pattern, over every corpus SOC in several constraint regimes. After
// every step, each core that is not running must get the same verdict
// from State.OK as from the map-based reference, and State.Conflict must
// explain exactly the refusals. After the walk, Reset must leave every
// core with a new State's verdicts, and the walk is replayed on the reset
// State.
func TestStateMatchesReference(t *testing.T) {
	steps := 300
	if testing.Short() {
		steps = 60
	}
	for si, sc := range corpus.All() {
		for ri, rg := range regimes(t, sc) {
			chk, err := constraint.New(rg.soc, rg.cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", sc.Name, rg.name, err)
			}
			ref := newRef(rg.soc, rg.cfg)
			st := chk.NewState()
			for pass := range 2 {
				rng := rand.New(rand.NewPCG(uint64(si), uint64(ri)))
				if err := drive(st, ref, len(rg.soc.Cores), rng, steps); err != nil {
					t.Fatalf("%s %s pass %d: %v", sc.Name, rg.name, pass, err)
				}
				st.Reset()
				fresh := chk.NewState()
				for id := 1; id <= len(rg.soc.Cores); id++ {
					if st.OK(id) != fresh.OK(id) || st.Conflict(id) != fresh.Conflict(id) {
						t.Fatalf("%s %s pass %d: after Reset, core %d gets OK %v, Conflict %q; a new State gives %v, %q",
							sc.Name, rg.name, pass, id, st.OK(id), st.Conflict(id), fresh.OK(id), fresh.Conflict(id))
					}
				}
			}
		}
	}
}

// drive runs one random sequence against st, which must have no core
// running or complete, and the reference, resetting st whenever every core
// is complete.
func drive(st *constraint.State, ref *refChecker, n int, rng *rand.Rand, steps int) error {
	running, complete := map[int]bool{}, map[int]bool{}
	var trace []string
	pick := func(want func(id int) bool) (int, bool) {
		var ids []int
		for id := 1; id <= n; id++ {
			if want(id) {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return 0, false
		}
		return ids[rng.IntN(len(ids))], true
	}
	idle := func(id int) bool { return !running[id] && !complete[id] }
	isRunning := func(id int) bool { return running[id] }
	start := func(id int) { st.Start(id); running[id] = true }
	stop := func(id int) { st.Stop(id); delete(running, id) }
	check := func() error {
		for id := 1; id <= n; id++ {
			if running[id] {
				continue
			}
			want := ref.conflict(id, complete, running)
			if got := st.OK(id); got != (want == "") {
				return fmt.Errorf("after %v: OK(%d) = %v, reference says %q", trace, id, got, want)
			}
			if got := st.Conflict(id); (got == "") != (want == "") {
				return fmt.Errorf("after %v: Conflict(%d) = %q, reference says %q", trace, id, got, want)
			}
		}
		return nil
	}
	for range steps {
		if len(complete) == n {
			st.Reset()
			running, complete = map[int]bool{}, map[int]bool{}
			trace = trace[:0]
		}
		switch rng.IntN(5) {
		case 0, 1: // start an idle core, mostly only when it is allowed to
			if id, ok := pick(idle); ok && (st.OK(id) || rng.IntN(4) == 0) {
				start(id)
				trace = append(trace, fmt.Sprintf("start %d", id))
			}
		case 2: // suspend a running core
			if id, ok := pick(isRunning); ok {
				stop(id)
				trace = append(trace, fmt.Sprintf("stop %d", id))
			}
		case 3: // finish a core, running or not
			if id, ok := pick(func(id int) bool { return !complete[id] }); ok {
				st.Complete(id)
				delete(running, id)
				complete[id] = true
				trace = append(trace, fmt.Sprintf("complete %d", id))
			}
		case 4: // preemptFor: stop victims, ask, and restart them on refusal
			id, ok := pick(idle)
			if !ok {
				break
			}
			var victims []int
			for v := 1; v <= n; v++ {
				if running[v] && rng.IntN(2) == 0 {
					victims = append(victims, v)
				}
			}
			for _, v := range victims {
				stop(v)
			}
			trace = append(trace, fmt.Sprintf("stop %v", victims))
			if err := check(); err != nil {
				return err
			}
			if !st.OK(id) {
				for _, v := range victims {
					start(v)
				}
				trace = append(trace, fmt.Sprintf("restart %v", victims))
			}
		}
		if err := check(); err != nil {
			return err
		}
	}
	return nil
}

var sinkOK bool

// TestStateDoesNotAllocate pins the inner-loop contract: asking and
// updating a State never touches the heap.
func TestStateDoesNotAllocate(t *testing.T) {
	sc, ok := corpus.ByName("mixed24-all-constraints-w32")
	if !ok {
		t.Fatal("corpus scenario missing")
	}
	s := sc.Build()
	chk, err := constraint.New(s, constraint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	st := chk.NewState()
	n := len(s.Cores)
	for _, op := range []struct {
		name string
		fn   func(id int)
	}{
		{"OK", func(id int) { sinkOK = st.OK(id) }},
		{"Start", st.Start},
		{"Stop", st.Stop},
		{"Complete", st.Complete},
		{"Reset", func(int) { st.Reset() }},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			for id := 1; id <= n; id++ {
				op.fn(id)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %.1f times per pass over %d cores, want 0", op.name, allocs, n)
		}
	}
}
