package constraint

import (
	"strings"
	"testing"

	"repro/internal/soc"
)

func testSOC() *soc.SOC {
	return &soc.SOC{
		Name: "t",
		Cores: []*soc.Core{
			{ID: 1, Name: "a", Inputs: 2, Outputs: 2, Test: soc.Test{Patterns: 5, Power: 100, BISTEngine: -1}},
			{ID: 2, Name: "b", Parent: 1, Inputs: 2, Outputs: 2, Test: soc.Test{Patterns: 5, Power: 50, BISTEngine: -1}},
			{ID: 3, Name: "c", Inputs: 2, Outputs: 2, Test: soc.Test{Patterns: 5, Power: 70, Kind: soc.BISTTest, BISTEngine: 0}},
			{ID: 4, Name: "d", Inputs: 2, Outputs: 2, Test: soc.Test{Patterns: 5, Power: 60, Kind: soc.BISTTest, BISTEngine: 0}},
			{ID: 5, Name: "e", Inputs: 2, Outputs: 2, Test: soc.Test{Patterns: 5, Power: 30, BISTEngine: -1}},
		},
		Precedences:   []soc.Precedence{{Before: 3, After: 5}},
		Concurrencies: []soc.Concurrency{{A: 1, B: 5}},
	}
}

// stateOf returns a State of chk with the given cores complete and the
// given cores running.
func stateOf(chk *Checker, complete, running []int) *State {
	st := chk.NewState()
	for _, id := range complete {
		st.Complete(id)
	}
	for _, id := range running {
		st.Start(id)
	}
	return st
}

func TestPrecedenceConflict(t *testing.T) {
	chk, err := New(testSOC(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if msg := stateOf(chk, nil, nil).Conflict(5); !strings.Contains(msg, "precedence") {
		t.Fatalf("core 5 should wait for 3: %q", msg)
	}
	if msg := stateOf(chk, []int{3}, nil).Conflict(5); msg != "" {
		t.Fatalf("core 5 should start after 3 completes: %q", msg)
	}
	if !stateOf(chk, nil, nil).OK(1) {
		t.Fatal("OK(1) false with empty state")
	}
}

func TestConcurrencyConflict(t *testing.T) {
	chk, _ := New(testSOC(), Config{})
	if msg := stateOf(chk, nil, []int{5}).Conflict(1); !strings.Contains(msg, "concurrency") {
		t.Fatalf("explicit concurrency not enforced: %q", msg)
	}
	// Hierarchy: 2 inside 1, implicit exclusion both directions.
	if msg := stateOf(chk, nil, []int{1}).Conflict(2); !strings.Contains(msg, "concurrency") {
		t.Fatalf("hierarchy exclusion not enforced: %q", msg)
	}
	if msg := stateOf(chk, nil, []int{2}).Conflict(1); !strings.Contains(msg, "concurrency") {
		t.Fatalf("hierarchy exclusion not symmetric: %q", msg)
	}
	// IgnoreHierarchy drops only the implicit ones.
	chk2, _ := New(testSOC(), Config{IgnoreHierarchy: true})
	if msg := stateOf(chk2, nil, []int{1}).Conflict(2); msg != "" {
		t.Fatalf("IgnoreHierarchy kept implicit constraint: %q", msg)
	}
	if msg := stateOf(chk2, nil, []int{5}).Conflict(1); msg == "" {
		t.Fatal("IgnoreHierarchy dropped explicit constraint")
	}
}

func TestPowerConflict(t *testing.T) {
	chk, err := New(testSOC(), Config{PowerMax: 150})
	if err != nil {
		t.Fatal(err)
	}
	// 100 + 50 = 150 fits exactly... but 1 and 2 are hierarchy-excluded;
	// use 1 (100) with 4 (60): 160 > 150.
	if msg := stateOf(chk, nil, []int{1}).Conflict(4); !strings.Contains(msg, "power") {
		t.Fatalf("power excess not caught: %q", msg)
	}
	// 1 (100) alone is fine; adding 5 (30) stays at 130 but 1~5 conflicts
	// first; use 2 (50) with 4 (60) = 110, fine.
	if msg := stateOf(chk, nil, []int{2}).Conflict(4); msg != "" {
		t.Fatalf("feasible power rejected: %q", msg)
	}
	// Power disabled when budget is zero.
	chk2, _ := New(testSOC(), Config{})
	if msg := stateOf(chk2, nil, []int{1}).Conflict(4); msg != "" {
		t.Fatalf("unbudgeted power check fired: %q", msg)
	}
}

func TestPowerInfeasible(t *testing.T) {
	s := testSOC()
	_, err := New(s, Config{PowerMax: 99}) // core 1 needs 100
	if err == nil || !strings.Contains(err.Error(), "no schedule exists") {
		t.Fatalf("infeasible budget accepted: %v", err)
	}
}

func TestBISTConflict(t *testing.T) {
	chk, _ := New(testSOC(), Config{})
	if msg := stateOf(chk, nil, []int{3}).Conflict(4); !strings.Contains(msg, "bist") {
		t.Fatalf("shared BIST engine not caught: %q", msg)
	}
	if msg := stateOf(chk, []int{3}, nil).Conflict(4); msg != "" {
		t.Fatalf("sequential BIST rejected: %q", msg)
	}
}

func TestPrecedenceCycle(t *testing.T) {
	s := testSOC()
	s.Precedences = append(s.Precedences, soc.Precedence{Before: 5, After: 3})
	if _, err := New(s, Config{}); err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("precedence cycle accepted: %v", err)
	}
}

func TestPowerFallbackToSOC(t *testing.T) {
	s := testSOC()
	s.PowerMax = 120
	chk, err := New(s, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if chk.powerMax != 120 {
		t.Fatalf("SOC PowerMax not picked up: %d", chk.powerMax)
	}
	// Config overrides.
	chk2, _ := New(s, Config{PowerMax: 300})
	if chk2.powerMax != 300 {
		t.Fatalf("override PowerMax = %d", chk2.powerMax)
	}
}

func TestValidateTimeline(t *testing.T) {
	chk, _ := New(testSOC(), Config{PowerMax: 150})
	ok := map[int][]Interval{
		3: {{0, 10}},
		4: {{10, 20}},
		5: {{10, 20}},
		2: {{0, 10}},
		1: {{20, 30}},
	}
	if err := chk.ValidateTimeline(ok); err != nil {
		t.Fatalf("valid timeline rejected: %v", err)
	}

	bad := map[int][]Interval{3: {{5, 10}}, 5: {{0, 8}}}
	if err := chk.ValidateTimeline(bad); err == nil || !strings.Contains(err.Error(), "predecessor") {
		t.Fatalf("precedence violation missed: %v", err)
	}

	bad = map[int][]Interval{3: {{0, 10}}, 4: {{5, 15}}}
	if err := chk.ValidateTimeline(bad); err == nil || !strings.Contains(err.Error(), "BIST") {
		t.Fatalf("BIST overlap missed: %v", err)
	}

	// Core 5's predecessor 3 runs first so only the 1~5 overlap remains.
	bad = map[int][]Interval{3: {{0, 2}}, 1: {{2, 12}}, 5: {{7, 17}}}
	if err := chk.ValidateTimeline(bad); err == nil || !strings.Contains(err.Error(), "concurrency") {
		t.Fatalf("concurrency overlap missed: %v", err)
	}

	bad = map[int][]Interval{1: {{0, 10}}, 4: {{0, 10}}} // 100+60 > 150
	if err := chk.ValidateTimeline(bad); err == nil || !strings.Contains(err.Error(), "power") {
		t.Fatalf("power violation missed: %v", err)
	}

	// Power exactly at the budget at a boundary instant is fine: a test
	// ending at t releases its power before one starting at t claims it.
	edge := map[int][]Interval{1: {{0, 10}}, 2: {{10, 20}}, 4: {{10, 20}}}
	if err := chk.ValidateTimeline(edge); err != nil {
		t.Fatalf("boundary handoff rejected: %v", err)
	}
}

func TestValidateTimelinePrecedenceNeedsPredecessorRun(t *testing.T) {
	chk, _ := New(testSOC(), Config{})
	bad := map[int][]Interval{5: {{0, 10}}}
	if err := chk.ValidateTimeline(bad); err == nil || !strings.Contains(err.Error(), "never runs") {
		t.Fatalf("missing predecessor run not caught: %v", err)
	}
}
