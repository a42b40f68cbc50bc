package soc

import (
	"strings"
	"testing"
)

func validSOC() *SOC {
	return &SOC{
		Name: "t",
		Cores: []*Core{
			{ID: 1, Name: "a", Inputs: 4, Outputs: 4, ScanChains: []int{10, 12}, Test: Test{Patterns: 5, BISTEngine: -1}},
			{ID: 2, Name: "b", Parent: 1, Inputs: 2, Outputs: 2, Test: Test{Patterns: 3, BISTEngine: -1}},
			{ID: 3, Name: "c", Inputs: 1, Outputs: 1, ScanChains: []int{8}, Test: Test{Patterns: 7, Kind: BISTTest, BISTEngine: 0}},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validSOC().Validate(); err != nil {
		t.Fatalf("valid SOC rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SOC)
		want   string
	}{
		{"no name", func(s *SOC) { s.Name = "" }, "missing name"},
		{"no cores", func(s *SOC) { s.Cores = nil }, "no cores"},
		{"bad id", func(s *SOC) { s.Cores[1].ID = 7 }, "has ID"},
		{"unnamed core", func(s *SOC) { s.Cores[0].Name = "" }, "no name"},
		{"negative inputs", func(s *SOC) { s.Cores[0].Inputs = -1 }, "negative terminal"},
		{"empty core", func(s *SOC) { c := s.Cores[1]; c.Inputs, c.Outputs, c.Bidirs = 0, 0, 0 }, "no terminals"},
		{"zero-length chain", func(s *SOC) { s.Cores[0].ScanChains[0] = 0 }, "non-positive length"},
		{"zero patterns", func(s *SOC) { s.Cores[0].Test.Patterns = 0 }, "non-positive pattern"},
		{"bist without engine", func(s *SOC) { s.Cores[2].Test.BISTEngine = -1 }, "no engine"},
		{"invalid engine", func(s *SOC) { s.Cores[0].Test.BISTEngine = -2 }, "invalid BIST engine"},
		{"negative power", func(s *SOC) { s.Cores[0].Test.Power = -5 }, "negative power"},
		{"unknown parent", func(s *SOC) { s.Cores[1].Parent = 9 }, "unknown parent"},
		{"hierarchy cycle", func(s *SOC) { s.Cores[0].Parent = 2 }, "cycle"},
		{"precedence unknown", func(s *SOC) { s.Precedences = []Precedence{{Before: 1, After: 9}} }, "unknown core"},
		{"precedence self", func(s *SOC) { s.Precedences = []Precedence{{Before: 2, After: 2}} }, "self-referential"},
		{"concurrency unknown", func(s *SOC) { s.Concurrencies = []Concurrency{{A: 0, B: 1}} }, "unknown core"},
		{"concurrency self", func(s *SOC) { s.Concurrencies = []Concurrency{{A: 3, B: 3}} }, "self-referential"},
		{"negative powermax", func(s *SOC) { s.PowerMax = -1 }, "negative power limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := validSOC()
			tc.mutate(s)
			err := s.Validate()
			if err == nil {
				t.Fatalf("mutation %q accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestScanBits(t *testing.T) {
	c := &Core{ScanChains: []int{10, 12, 3}}
	if got := c.ScanBits(); got != 25 {
		t.Fatalf("ScanBits = %d, want 25", got)
	}
	if got := (&Core{}).ScanBits(); got != 0 {
		t.Fatalf("empty ScanBits = %d, want 0", got)
	}
}

func TestDataBitsPerPattern(t *testing.T) {
	c := &Core{Inputs: 3, Outputs: 5, Bidirs: 2, ScanChains: []int{10}}
	// 2·10 scan + 3 in + 5 out + 2·2 bidir = 32
	if got := c.DataBitsPerPattern(); got != 32 {
		t.Fatalf("DataBitsPerPattern = %d, want 32", got)
	}
}

func TestTestPowerFallback(t *testing.T) {
	c := &Core{Inputs: 1, Outputs: 1, ScanChains: []int{4}, Test: Test{Patterns: 1}}
	if got := c.TestPower(); got != c.DataBitsPerPattern() {
		t.Fatalf("TestPower fallback = %d, want %d", got, c.DataBitsPerPattern())
	}
	c.Test.Power = 99
	if got := c.TestPower(); got != 99 {
		t.Fatalf("explicit TestPower = %d, want 99", got)
	}
}

func TestCoreLookup(t *testing.T) {
	s := validSOC()
	for id := 1; id <= 3; id++ {
		c := s.Core(id)
		if c == nil || c.ID != id {
			t.Fatalf("Core(%d) = %+v", id, c)
		}
	}
	for _, id := range []int{0, -1, 4, 100} {
		if c := s.Core(id); c != nil {
			t.Fatalf("Core(%d) = %+v, want nil", id, c)
		}
	}
}

func TestChildren(t *testing.T) {
	s := validSOC()
	kids := s.Children(1)
	if len(kids) != 1 || kids[0] != 2 {
		t.Fatalf("Children(1) = %v, want [2]", kids)
	}
	if kids := s.Children(3); len(kids) != 0 {
		t.Fatalf("Children(3) = %v, want empty", kids)
	}
}

func TestHierarchyConcurrencies(t *testing.T) {
	s := validSOC()
	// Add a grandchild: 4 inside 2 inside 1.
	s.Cores = append(s.Cores, &Core{
		ID: 4, Name: "d", Parent: 2, Inputs: 1, Outputs: 1,
		Test: Test{Patterns: 1, BISTEngine: -1},
	})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	got := s.HierarchyConcurrencies()
	want := map[[2]int]bool{
		{1, 2}: true, // parent 1 vs child 2
		{2, 4}: true, // parent 2 vs child 4
		{1, 4}: true, // transitive: 4 nested in 1
	}
	if len(got) != len(want) {
		t.Fatalf("got %d constraints %v, want %d", len(got), got, len(want))
	}
	for _, cc := range got {
		if !want[[2]int{cc.A, cc.B}] {
			t.Fatalf("unexpected constraint %+v", cc)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := validSOC()
	s.Precedences = []Precedence{{Before: 1, After: 2}}
	c := s.Clone()
	c.Cores[0].ScanChains[0] = 999
	c.Cores[0].Name = "mutated"
	c.Precedences[0].Before = 3
	if s.Cores[0].ScanChains[0] == 999 || s.Cores[0].Name == "mutated" {
		t.Fatal("Clone shares core state with original")
	}
	if s.Precedences[0].Before == 3 {
		t.Fatal("Clone shares precedence slice with original")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
}

func TestTestKindString(t *testing.T) {
	if ScanTest.String() != "scan" || BISTTest.String() != "bist" {
		t.Fatalf("kind strings: %q %q", ScanTest, BISTTest)
	}
	if got := TestKind(9).String(); !strings.Contains(got, "9") {
		t.Fatalf("unknown kind string %q", got)
	}
}
