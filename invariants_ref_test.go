package repro_test

import (
	"context"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/constraint"
	"repro/internal/corpus"
	"repro/internal/sched"
	"repro/internal/soc"
)

// checkInvariantsRef is sched.CheckInvariants before it checked wires with
// one flat slice of records: it buckets every piece's wires in a map from
// wire to intervals, checks each piece's wires for repeats with a map of
// its own, and appends each core's intervals to a slice of its own. It
// reads the regime from the schedule's params as CheckInvariants does: the
// positive budgets, the per-core cap (0 means sched.DefaultMaxWidth), the
// power budget and whether hierarchy exclusions apply.
// TestCheckInvariantsMatchesReference and FuzzCheckInvariants require the
// same verdict and error text from CheckInvariants. It differs from the
// old check in one place: it sorts each wire's intervals stably.
// sort.Slice sorts up to 12 intervals by insertion, which is stable, and
// left equal starts on a longer list, which always collide, in an order
// of its own; stably, a collision of equal starts names the pieces in
// core order. It lives here, beside the corpus and its packing backends,
// rather than in package sched, whose own tests race only classic and
// their fake backends.
func checkInvariantsRef(s *soc.SOC, sch *sched.Schedule) error {
	if sch == nil {
		return fmt.Errorf("sched: nil schedule")
	}
	if sch.TAMWidth < 1 {
		return fmt.Errorf("sched: non-positive TAM width %d", sch.TAMWidth)
	}
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
	if bad != -1 {
		return &sched.UnknownCoreError{CoreID: bad}
	}
	budgets := make(map[int]int)
	for id, b := range sch.Params.MaxPreemptions {
		if b > 0 {
			budgets[id] = b
		}
	}
	maxWidth := sch.Params.MaxWidth
	if maxWidth == 0 {
		maxWidth = sched.DefaultMaxWidth
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
		if a.Preemptions > budgets[c.ID] {
			return fmt.Errorf("sched: core %d preemption count %d exceeds its budget %d", c.ID, a.Preemptions, budgets[c.ID])
		}
		if a.Width > maxWidth {
			return fmt.Errorf("sched: core %d width %d exceeds the per-core cap %d", c.ID, a.Width, maxWidth)
		}
	}
	wires := make([]int, 0, len(perWire))
	for w := range perWire {
		wires = append(wires, w)
	}
	sort.Ints(wires)
	for _, w := range wires {
		ivs := perWire[w]
		sort.SliceStable(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
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

// cloneSchedule returns a copy of sch whose assignments, pieces and wire
// lists can be changed without touching sch.
func cloneSchedule(sch *sched.Schedule) *sched.Schedule {
	c := *sch
	c.Assignments = make(map[int]*sched.Assignment, len(sch.Assignments))
	for id, a := range sch.Assignments {
		ac := *a
		ac.Pieces = slices.Clone(a.Pieces)
		for i := range ac.Pieces {
			ac.Pieces[i].Wires = slices.Clone(a.Pieces[i].Wires)
		}
		c.Assignments[id] = &ac
	}
	return &c
}

// coreIDs returns the IDs of sch's assignments in ascending order.
func coreIDs(sch *sched.Schedule) []int {
	ids := make([]int, 0, len(sch.Assignments))
	for id := range sch.Assignments {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// sameVerdict requires CheckInvariants and the reference to accept sch
// both, or to reject it with the same error text, and returns the
// reference's error.
func sameVerdict(t testing.TB, name string, s *soc.SOC, sch *sched.Schedule) error {
	t.Helper()
	got, want := sched.CheckInvariants(s, sch), checkInvariantsRef(s, sch)
	if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
		t.Fatalf("%s: CheckInvariants = %v, reference = %v", name, got, want)
	}
	return want
}

// collide gives one piece a wire of another core's piece that overlaps it
// in time, if such a pair exists.
func collide(sch *sched.Schedule) bool {
	ids := coreIDs(sch)
	for _, i := range ids {
		for pi := range sch.Assignments[i].Pieces {
			p := &sch.Assignments[i].Pieces[pi]
			for _, j := range ids {
				if j == i {
					continue
				}
				for _, q := range sch.Assignments[j].Pieces {
					if q.Start >= p.End || p.Start >= q.End {
						continue
					}
					for _, w := range q.Wires {
						if !slices.Contains(p.Wires, w) {
							p.Wires[0] = w
							return true
						}
					}
				}
			}
		}
	}
	return false
}

// firstPiece returns the first piece, in core ID order, with at least
// minWires wires and minCycles cycles, or nil.
func firstPiece(sch *sched.Schedule, minWires int, minCycles int64) (*sched.Assignment, int) {
	for _, id := range coreIDs(sch) {
		a := sch.Assignments[id]
		for i := range a.Pieces {
			if p := &a.Pieces[i]; len(p.Wires) >= minWires && p.Duration() >= minCycles {
				return a, i
			}
		}
	}
	return nil, 0
}

// corruptions are the defects TestCheckInvariantsMatchesReference plants,
// each in its own copy of a valid schedule. apply reports whether the
// schedule had a place for the defect.
var corruptions = []struct {
	name  string
	apply func(sch *sched.Schedule) bool
}{
	{"a colliding wire", collide},
	{"a wire listed twice", func(sch *sched.Schedule) bool {
		a, i := firstPiece(sch, 2, 1)
		if a == nil {
			return false
		}
		ws := a.Pieces[i].Wires
		ws[len(ws)-1] = ws[0]
		return true
	}},
	{"a wire at the TAM width", func(sch *sched.Schedule) bool {
		a, i := firstPiece(sch, 1, 1)
		a.Pieces[i].Wires[0] = sch.TAMWidth
		return true
	}},
	{"a negative wire", func(sch *sched.Schedule) bool {
		ids := coreIDs(sch)
		ps := sch.Assignments[ids[len(ids)-1]].Pieces
		ws := ps[len(ps)-1].Wires
		ws[len(ws)-1] = -1
		return true
	}},
	{"a piece stored twice", func(sch *sched.Schedule) bool {
		a, i := firstPiece(sch, 1, 1)
		dup := a.Pieces[i]
		dup.Wires = slices.Clone(dup.Wires)
		a.Pieces = slices.Insert(a.Pieces, i+1, dup)
		return true
	}},
	{"pieces out of time order", func(sch *sched.Schedule) bool {
		a, i := firstPiece(sch, 1, 2)
		if a == nil {
			return false
		}
		p := a.Pieces[i]
		mid := p.Start + p.Duration()/2
		first, second := p, p
		first.End, second.Start = mid, mid
		second.Wires = slices.Clone(p.Wires)
		a.Pieces = slices.Replace(a.Pieces, i, i+1, second, first)
		return true
	}},
	{"a wrong preemption count", func(sch *sched.Schedule) bool {
		sch.Assignments[coreIDs(sch)[0]].Preemptions++
		return true
	}},
	{"a short segment", func(sch *sched.Schedule) bool {
		ids := coreIDs(sch)
		ps := sch.Assignments[ids[len(ids)/2]].Pieces
		ps[len(ps)-1].End--
		return true
	}},
	{"a colliding wire and a later core's short segment", func(sch *sched.Schedule) bool {
		if !collide(sch) {
			return false
		}
		ids := coreIDs(sch)
		ps := sch.Assignments[ids[len(ids)-1]].Pieces
		ps[len(ps)-1].End--
		return true
	}},
	{"a split past its budget", func(sch *sched.Schedule) bool {
		for _, id := range coreIDs(sch) {
			if n := sch.Assignments[id].Preemptions; n > 0 {
				sch.Params.MaxPreemptions = maps.Clone(sch.Params.MaxPreemptions)
				sch.Params.MaxPreemptions[id] = n - 1
				return true
			}
		}
		return false
	}},
	{"a core wider than maxWidth", func(sch *sched.Schedule) bool {
		widest := 0
		for _, a := range sch.Assignments {
			widest = max(widest, a.Width)
		}
		sch.Params.MaxWidth = widest - 1
		return widest > 1
	}},
}

// TestCheckInvariantsMatchesReference: every corpus scenario's schedule
// from every backend that accepts it passes both CheckInvariants and the
// map-based reference, and each copy of it with one of the corruptions
// planted gets the same verdict and error text from both. Every
// corruption is rejected somewhere. With -short it covers the demo8 and
// d695 scenarios.
func TestCheckInvariantsMatchesReference(t *testing.T) {
	rejected := make([]int, len(corruptions))
	schedules := 0
	for _, sc := range corpus.All() {
		if testing.Short() && !strings.HasPrefix(sc.Name, "demo8-") && !strings.HasPrefix(sc.Name, "d695-") {
			continue
		}
		s := sc.Build()
		params, err := sc.ResolveParams(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range sched.Backends() {
			b, err := sched.BackendByName(backend)
			if err != nil {
				t.Fatal(err)
			}
			if _, declined := sched.BackendDeclines(b, params); declined {
				continue
			}
			sch, _, err := corpus.ReplaySchedule(sc, backend)
			if err != nil {
				t.Fatal(err)
			}
			name := sc.Name + "/" + backend
			if err := sameVerdict(t, name, s, sch); err != nil {
				t.Fatalf("%s: valid schedule rejected: %v", name, err)
			}
			schedules++
			for k, c := range corruptions {
				bad := cloneSchedule(sch)
				if c.apply(bad) && sameVerdict(t, name+" with "+c.name, s, bad) != nil {
					rejected[k]++
				}
			}
		}
	}
	for k, c := range corruptions {
		if rejected[k] == 0 {
			t.Errorf("no schedule with %s was rejected", c.name)
		}
		t.Logf("%d schedules with %s rejected", rejected[k], c.name)
	}
	t.Logf("%d schedules", schedules)
}

// d695Portfolio returns d695's optimizer and its portfolio schedule at
// W=32.
func d695Portfolio(t testing.TB) (*sched.Optimizer, *sched.Schedule) {
	t.Helper()
	opt, err := sched.New(bench.D695(), sched.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := opt.ScheduleBackend(context.Background(), sched.Params{TAMWidth: 32, Workers: 1, Backend: "portfolio"})
	if err != nil {
		t.Fatal(err)
	}
	return opt, sch
}

// TestVerifyAllocations: Optimizer.Verify of d695's portfolio schedule
// allocates at most 32 objects (23 when this test was written). With a
// map from wire to intervals and a map per piece, the wire check made it
// 221.
func TestVerifyAllocations(t *testing.T) {
	opt, sch := d695Portfolio(t)
	allocs := testing.AllocsPerRun(20, func() {
		if err := opt.Verify(sch); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Optimizer.Verify allocates %.0f times", allocs)
	if allocs > 32 {
		t.Errorf("Optimizer.Verify allocates %.0f times, want at most 32", allocs)
	}
}

// TestCheckInvariantsHugeTAMWidth: a schedule declaring TAM width 1<<40,
// with its wires at the top of that range, is checked in memory that
// follows its pieces: it passes after allocating no more than twice what
// the same schedule at its own width does (the fewest bytes of three
// checks each).
func TestCheckInvariantsHugeTAMWidth(t *testing.T) {
	opt, sch := d695Portfolio(t)
	top := 0
	for _, a := range sch.Assignments {
		for _, p := range a.Pieces {
			top = max(top, slices.Max(p.Wires))
		}
	}
	huge := cloneSchedule(sch)
	huge.TAMWidth = 1 << 40
	for _, a := range huge.Assignments {
		for _, p := range a.Pieces {
			for i := range p.Wires {
				p.Wires[i] += huge.TAMWidth - 1 - top
			}
		}
	}
	bytesOf := func(sch *sched.Schedule) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := sched.CheckInvariants(opt.SOC(), sch)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("TAM width %d: %v", sch.TAMWidth, err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	own, wide := bytesOf(sch), bytesOf(huge)
	t.Logf("CheckInvariants allocates %d bytes at TAM width %d and %d at 1<<40", own, sch.TAMWidth, wide)
	if wide > 2*own {
		t.Errorf("CheckInvariants allocates %d bytes at TAM width 1<<40, more than twice the %d at width %d", wide, own, sch.TAMWidth)
	}
}

// fuzzBases are FuzzCheckInvariants' valid schedules: demo8's budgeted
// preempt-rectpack schedule at W=9, which splits a core (at the
// scenario's own W=12 it splits none), and d695's portfolio schedule at
// W=32.
var fuzzBases = sync.OnceValues(func() ([]*soc.SOC, []*sched.Schedule) {
	var socs []*soc.SOC
	var schs []*sched.Schedule
	for _, b := range []struct {
		scenario, backend string
		width             int
	}{
		{"demo8-w12-preempt1", "preempt-rectpack", 9},
		{"d695-w32", "portfolio", 32},
	} {
		sc, ok := corpus.ByName(b.scenario)
		if !ok {
			panic("no corpus scenario " + b.scenario)
		}
		sc.Params.TAMWidth = b.width
		sch, _, err := corpus.ReplaySchedule(sc, b.backend)
		if err != nil {
			panic(err)
		}
		socs, schs = append(socs, sc.Build()), append(schs, sch)
	}
	return socs, schs
})

// mutate applies one four-byte fuzz operation to sch: op picks what
// changes, core and piece pick where, and v is by how much.
func mutate(sch *sched.Schedule, ids []int, op, core, piece, v byte) {
	a := sch.Assignments[ids[int(core)%len(ids)]]
	d := int64(int8(v))
	switch op % 12 {
	case 0:
		a.Preemptions += int(d % 3)
		return
	case 1:
		a.PenaltyCycles += d
		return
	case 2:
		a.BaseTime += d
		return
	case 3:
		a.Width += int(d % 3)
		return
	case 4:
		sch.TAMWidth += int(d % 4)
		return
	}
	if len(a.Pieces) == 0 {
		return
	}
	i := int(piece) % len(a.Pieces)
	p := &a.Pieces[i]
	switch op % 12 {
	case 5: // one wire, anywhere from -1 to the TAM width
		if len(p.Wires) > 0 {
			p.Wires[int(piece/16)%len(p.Wires)] = int(v)%(max(sch.TAMWidth, 0)+2) - 1
		}
	case 6: // another core's wires
		o := sch.Assignments[ids[(int(core)+1+int(v))%len(ids)]]
		if len(o.Pieces) > 0 {
			copy(p.Wires, o.Pieces[int(v)%len(o.Pieces)].Wires)
		}
	case 7:
		p.Start += d
	case 8:
		p.End += d
	case 9:
		p.Start += d
		p.End += d
	case 10: // store the piece twice
		dup := *p
		dup.Wires = slices.Clone(p.Wires)
		a.Pieces = slices.Insert(a.Pieces, i, dup)
	default: // drop the piece, or swap it with another
		if j := int(v) % len(a.Pieces); j == i {
			a.Pieces = slices.Delete(a.Pieces, i, i+1)
		} else {
			a.Pieces[i], a.Pieces[j] = a.Pieces[j], a.Pieces[i]
		}
	}
}

// FuzzCheckInvariants: a valid schedule changed by a sequence of fuzz
// operations (its first byte picks the schedule, then four bytes per
// operation, at most 32) on its wires, spans and counts gets the same
// verdict and error text from CheckInvariants as from the map-based
// reference.
func FuzzCheckInvariants(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 5, 0, 0, 3})
	f.Add([]byte{1, 6, 2, 0, 1, 0, 5, 7})
	f.Add([]byte{0, 10, 1, 0, 0, 8, 3, 0, 0xff})
	f.Add([]byte{1, 9, 4, 0, 2, 11, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		socs, schs := fuzzBases()
		k := int(data[0]) % len(schs)
		sch := cloneSchedule(schs[k])
		ids := coreIDs(sch)
		data = data[1:]
		for n := 0; len(data) >= 4 && n < 32; n++ {
			mutate(sch, ids, data[0], data[1], data[2], data[3])
			data = data[4:]
		}
		sameVerdict(t, "mutated schedule", socs[k], sch)
	})
}
