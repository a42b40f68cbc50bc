package tamsim

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/sched"
	"repro/internal/soc"
)

func schedule(t *testing.T, s *soc.SOC, p sched.Params) *sched.Schedule {
	t.Helper()
	sch, err := sched.SweepBest(s, p, []int{5, 10}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func TestSimulateDemoBitLevel(t *testing.T) {
	s := bench.Demo()
	sch := schedule(t, s, sched.Params{TAMWidth: 16})
	res, err := Simulate(s, sch, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BitLevelCores != len(s.Cores) {
		t.Fatalf("bit-level %d/%d cores; demo SOC is small enough for all", res.BitLevelCores, len(s.Cores))
	}
	if res.MeasuredMakespan != sch.Makespan {
		t.Fatalf("measured %d vs schedule %d", res.MeasuredMakespan, sch.Makespan)
	}
	if res.DataVolume != int64(sch.TAMWidth)*sch.Makespan {
		t.Fatalf("data volume %d != W·T", res.DataVolume)
	}
	if res.PerPinDepth != sch.Makespan {
		t.Fatalf("per-pin depth %d != makespan", res.PerPinDepth)
	}
	for id, cr := range res.Cores {
		if cr.MismatchedResponses != 0 {
			t.Fatalf("core %d: %d mismatched responses", id, cr.MismatchedResponses)
		}
	}
	if res.PayloadEfficiency() <= 0 {
		t.Fatalf("payload efficiency %v", res.PayloadEfficiency())
	}
}

// TestSimulateRespectsBitLevelCap: with bit-level simulation disabled no
// core runs bit by bit, and under a 20,000-bit cap a core runs bit by bit
// exactly when its payload fits the cap and it has no preemption. demo8 at
// W=16 has cores on both sides of that cap.
func TestSimulateRespectsBitLevelCap(t *testing.T) {
	s := bench.Demo()
	sch := schedule(t, s, sched.Params{TAMWidth: 16})
	res, err := Simulate(s, sch, Options{BitLevelMaxBits: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.BitLevelCores != 0 {
		t.Fatalf("bit-level disabled but %d cores simulated", res.BitLevelCores)
	}
	const capBits = 20000
	res, err = Simulate(s, sch, Options{BitLevelMaxBits: capBits})
	if err != nil {
		t.Fatal(err)
	}
	bitLevel := 0
	for _, c := range s.Cores {
		cr := res.Cores[c.ID]
		want := cr.PayloadBits <= capBits && sch.Assignments[c.ID].Preemptions == 0
		if cr.BitLevel != want {
			t.Errorf("core %d (%d payload bits, %d preemptions): bit level %t, want %t",
				c.ID, cr.PayloadBits, sch.Assignments[c.ID].Preemptions, cr.BitLevel, want)
		}
		if cr.BitLevel {
			bitLevel++
		}
	}
	if res.BitLevelCores != bitLevel {
		t.Errorf("BitLevelCores = %d, but %d cores ran bit by bit", res.BitLevelCores, bitLevel)
	}
	if bitLevel == 0 || bitLevel == len(s.Cores) {
		t.Errorf("cap %d ran %d of %d cores bit by bit, want both kinds", capBits, bitLevel, len(s.Cores))
	}
}

// TestSimulatePreemptiveCycleAccounting replays a schedule in which core 1
// is preempted once and core 2 runs in its gap. Both share BIST engine 0,
// and a test holds its engine only while it runs, so the schedule is valid.
func TestSimulatePreemptiveCycleAccounting(t *testing.T) {
	s, o := bistPair(t)
	const w = 2
	sch := assembleBISTPair(t, o, w, true)
	res, err := Simulate(s, sch, Options{})
	if err != nil {
		t.Fatalf("core 2 in core 1's preemption gap rejected: %v", err)
	}
	// Preempted core 1 is verified at cycle level (timing model plus one
	// penalty), though it is as small as core 2, which runs bit by bit.
	ps, c1 := o.ParetoSet(1), res.Cores[1]
	if sch.Assignments[1].Preemptions != 1 || c1.BitLevel || c1.Cycles != ps.Time(w)+ps.Penalty(w) {
		t.Fatalf("preempted core 1: %d preemptions, bit level %t, %d cycles; want 1, false, %d",
			sch.Assignments[1].Preemptions, c1.BitLevel, c1.Cycles, ps.Time(w)+ps.Penalty(w))
	}
	if !res.Cores[2].BitLevel {
		t.Fatal("unpreempted core 2 was not bit-level simulated")
	}
}

func TestSimulateDetectsTampering(t *testing.T) {
	s := bench.Demo()
	sch := schedule(t, s, sched.Params{TAMWidth: 16})

	// Shorten one piece: cycle accounting must fail.
	var victim int
	for id := range sch.Assignments {
		victim = id
		break
	}
	saved := sch.Assignments[victim].Pieces[0].End
	sch.Assignments[victim].Pieces[0].End = saved - 1
	if _, err := Simulate(s, sch, Options{}); err == nil {
		t.Fatal("shortened piece accepted")
	}
	sch.Assignments[victim].Pieces[0].End = saved

	// Makespan lie.
	sch.Makespan++
	if _, err := Simulate(s, sch, Options{}); err == nil {
		t.Fatal("wrong makespan accepted")
	}
	sch.Makespan--
}

// bistPair returns an SOC of two BIST cores that share engine 0, and an
// optimizer over it.
func bistPair(t *testing.T) (*soc.SOC, *sched.Optimizer) {
	t.Helper()
	s := &soc.SOC{
		Name: "bistclash",
		Cores: []*soc.Core{
			{ID: 1, Name: "m0", Inputs: 2, Outputs: 2, ScanChains: []int{10}, Test: soc.Test{Patterns: 5, Kind: soc.BISTTest, BISTEngine: 0}},
			{ID: 2, Name: "m1", Inputs: 2, Outputs: 2, ScanChains: []int{10}, Test: soc.Test{Patterns: 5, Kind: soc.BISTTest, BISTEngine: 0}},
		},
	}
	o, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	return s, o
}

// assembleBISTPair lays both cores of bistPair at width w on a TAM of 2w
// wires, so no two pieces ever share a wire. With split, core 1 is
// preempted once, within its budget of one, and core 2 runs in its gap;
// otherwise both start at 0.
func assembleBISTPair(t *testing.T, o *sched.Optimizer, w int, split bool) *sched.Schedule {
	t.Helper()
	t1, t2 := o.ParetoSet(1).Time(w), o.ParetoSet(2).Time(w)
	first := sched.CoreLayout{ID: 1, Width: w, Spans: []sched.Span{{Start: 0, End: t1}}}
	second := sched.CoreLayout{ID: 2, Width: w, Spans: []sched.Span{{Start: 0, End: t2}}}
	params := sched.Params{TAMWidth: 2 * w}
	if split {
		h, pen := t1/2, o.ParetoSet(1).Penalty(w)
		first.Spans = []sched.Span{{Start: 0, End: h}, {Start: h + t2, End: t1 + pen + t2}}
		first.Preemptions, first.Penalty = 1, pen
		second.Spans = []sched.Span{{Start: h, End: h + t2}}
		params.MaxPreemptions = map[int]int{1: 1}
	}
	sch, err := o.Assemble(params, []sched.CoreLayout{first, second})
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

// TestSimulateDetectsBISTOverlap: two tests that share a BIST engine and
// run at once on disjoint wires are rejected by sched.CheckInvariants.
func TestSimulateDetectsBISTOverlap(t *testing.T) {
	s, o := bistPair(t)
	sch := assembleBISTPair(t, o, 2, false)
	if _, err := Simulate(s, sch, Options{}); err == nil || !strings.Contains(err.Error(), "BIST engine 0 shared") {
		t.Fatalf("BIST overlap not detected: %v", err)
	}
}

func TestSimulateD695AllWidths(t *testing.T) {
	s := bench.D695()
	for _, w := range []int{16, 64} {
		sch := schedule(t, s, sched.Params{TAMWidth: w})
		res, err := Simulate(s, sch, Options{})
		if err != nil {
			t.Fatalf("W=%d: %v", w, err)
		}
		if res.BitLevelCores == 0 {
			t.Fatalf("W=%d: no bit-level verification happened", w)
		}
	}
}

// TestTimingModelAgreesBitLevel pins the formula T = (1+max)·p + min
// against the cycle-by-cycle walk for assorted wrapper shapes.
func TestTimingModelAgreesBitLevel(t *testing.T) {
	shapes := []*soc.Core{
		{ID: 1, Name: "bal", Inputs: 4, Outputs: 4, ScanChains: []int{20, 20}, Test: soc.Test{Patterns: 9, BISTEngine: -1}},
		{ID: 2, Name: "skewIn", Inputs: 30, Outputs: 1, ScanChains: []int{8}, Test: soc.Test{Patterns: 5, BISTEngine: -1}},
		{ID: 3, Name: "skewOut", Inputs: 1, Outputs: 30, ScanChains: []int{8}, Test: soc.Test{Patterns: 5, BISTEngine: -1}},
		{ID: 4, Name: "comb", Inputs: 12, Outputs: 7, Test: soc.Test{Patterns: 11, BISTEngine: -1}},
		{ID: 5, Name: "bidir", Inputs: 3, Outputs: 3, Bidirs: 5, ScanChains: []int{6, 4}, Test: soc.Test{Patterns: 7, BISTEngine: -1}},
	}
	for _, c := range shapes {
		one := &soc.SOC{Name: "one", Cores: []*soc.Core{c}}
		id := c.ID
		c.ID = 1
		sch, err := sched.Run(one, sched.Params{TAMWidth: 4, Percent: 5, Delta: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		if _, err := Simulate(one, sch, Options{}); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		c.ID = id
	}
}
