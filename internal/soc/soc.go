// Package soc defines the data model for system-on-chip test descriptions:
// an SOC is a set of embedded cores, each with primary I/Os, internal scan
// chains, and one or more tests, plus SOC-level test constraints
// (precedence, concurrency, power) in the style of the ITC'02 SOC test
// benchmarks.
package soc

import (
	"fmt"
	"sort"
)

// TestKind distinguishes how a test's stimuli are delivered.
type TestKind int

const (
	// ScanTest is an external test: patterns are transported over the TAM
	// and shifted through the core's wrapper scan chains.
	ScanTest TestKind = iota
	// BISTTest is applied by an on-chip BIST engine; the TAM carries only
	// control/observation data, but the test still occupies its assigned
	// TAM wires for its duration.
	BISTTest
)

// String returns the kind's mnemonic.
func (k TestKind) String() string {
	switch k {
	case ScanTest:
		return "scan"
	case BISTTest:
		return "bist"
	default:
		return fmt.Sprintf("TestKind(%d)", int(k))
	}
}

// Test describes one test of a core. In this framework each core carries
// exactly one aggregate test (the ITC'02 files may list several; the parser
// merges pattern counts), but the model keeps Test separate from Core so
// multi-test extensions stay cheap.
type Test struct {
	// Patterns is the number of test patterns to apply.
	Patterns int
	// Kind says whether the test is externally applied scan or on-chip BIST.
	Kind TestKind
	// BISTEngine is the identifier of the on-chip BIST engine used by this
	// test, or -1 when no engine is used. Two tests that name the same
	// engine may never run concurrently (a BIST resource conflict). A test
	// holds its engine only while it runs, so a preempted test frees it
	// during its gap, where another test on the engine may run.
	BISTEngine int
	// Power is the power dissipated while this test runs, in abstract
	// units. Zero means "assign a default from the core's data bits per
	// pattern" (see Core.DataBitsPerPattern).
	Power int
}

// Core is one embedded core of the SOC.
type Core struct {
	// ID is the core's 1-based index within the SOC. Core 0 is reserved
	// for the SOC-level (unwrapped) logic and never appears here.
	ID int
	// Name is a human-readable label (e.g. the ISCAS circuit name).
	Name string
	// Parent is the ID of the hierarchical parent core, or 0 when the core
	// hangs directly off the SOC. A parent core's Intest conflicts with its
	// children's tests (their wrappers must be in Extest mode).
	Parent int
	// Inputs, Outputs, Bidirs count the core's functional terminals; each
	// gets a wrapper cell.
	Inputs, Outputs, Bidirs int
	// ScanChains holds the fixed lengths of the core's internal scan
	// chains. Empty for purely combinational cores.
	ScanChains []int
	// Test is the core's test.
	Test Test
}

// ScanBits returns the total number of internal scan flip-flops.
func (c *Core) ScanBits() int {
	total := 0
	for _, l := range c.ScanChains {
		total += l
	}
	return total
}

// DataBitsPerPattern returns the number of test data bits moved per pattern:
// every scan bit is both loaded and unloaded, every input/output cell carries
// one bit, and bidirs carry one bit each way. It is the paper's basis for
// the "hypothetical power value" of a test.
func (c *Core) DataBitsPerPattern() int {
	return 2*c.ScanBits() + c.Inputs + c.Outputs + 2*c.Bidirs
}

// TestPower returns the test's power value, falling back to
// DataBitsPerPattern when the test does not carry an explicit value.
func (c *Core) TestPower() int {
	if c.Test.Power > 0 {
		return c.Test.Power
	}
	return c.DataBitsPerPattern()
}

// Precedence expresses "Before must complete prior to After beginning".
type Precedence struct {
	Before, After int // core IDs
}

// Concurrency expresses "A and B must never run at the same time".
type Concurrency struct {
	A, B int // core IDs
}

// SOC is a full system-on-chip test description.
type SOC struct {
	// Name labels the SOC (e.g. "d695").
	Name string
	// Cores holds the embedded cores, in ID order starting at ID 1.
	Cores []*Core
	// Precedences lists precedence constraints between core tests.
	Precedences []Precedence
	// Concurrencies lists pairs of core tests that must not overlap.
	Concurrencies []Concurrency
	// PowerMax is the SOC's maximum allowed test power dissipation;
	// 0 means unconstrained.
	PowerMax int
}

// Core returns the core with the given ID, or nil when absent.
func (s *SOC) Core(id int) *Core {
	if id < 1 || id > len(s.Cores) {
		return nil
	}
	c := s.Cores[id-1]
	if c.ID != id {
		for _, cc := range s.Cores {
			if cc.ID == id {
				return cc
			}
		}
		return nil
	}
	return c
}

// Children returns the IDs of cores whose Parent is id, sorted ascending.
func (s *SOC) Children(id int) []int {
	var kids []int
	for _, c := range s.Cores {
		if c.Parent == id {
			kids = append(kids, c.ID)
		}
	}
	sort.Ints(kids)
	return kids
}

// HierarchyConcurrencies derives the implicit concurrency constraints from
// the core hierarchy: a parent core cannot be tested at the same time as any
// core nested (transitively) inside it, because the child wrappers must be
// in Extest mode while the parent is in Intest mode.
func (s *SOC) HierarchyConcurrencies() []Concurrency {
	var out []Concurrency
	for _, c := range s.Cores {
		for p := c.Parent; p != 0; {
			out = append(out, Concurrency{A: p, B: c.ID})
			pc := s.Core(p)
			if pc == nil {
				break
			}
			p = pc.Parent
		}
	}
	return out
}

// TotalTestBits returns the total number of test data bits across all cores:
// Σ patterns · data-bits-per-pattern. It approximates the raw tester data
// the SOC's tests move, independent of TAM design.
func (s *SOC) TotalTestBits() int64 {
	var total int64
	for _, c := range s.Cores {
		total += int64(c.Test.Patterns) * int64(c.DataBitsPerPattern())
	}
	return total
}

// Clone returns a deep copy of the SOC.
func (s *SOC) Clone() *SOC {
	out := &SOC{
		Name:          s.Name,
		PowerMax:      s.PowerMax,
		Precedences:   append([]Precedence(nil), s.Precedences...),
		Concurrencies: append([]Concurrency(nil), s.Concurrencies...),
	}
	for _, c := range s.Cores {
		cc := *c
		cc.ScanChains = append([]int(nil), c.ScanChains...)
		out.Cores = append(out.Cores, &cc)
	}
	return out
}

// Validate checks structural consistency: contiguous 1-based core IDs,
// non-negative terminal counts, positive scan-chain lengths and pattern
// counts, resolvable parents with no hierarchy cycles, and constraint
// endpoints that name existing distinct cores.
func (s *SOC) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("soc: missing name")
	}
	if len(s.Cores) == 0 {
		return fmt.Errorf("soc %s: no cores", s.Name)
	}
	for i, c := range s.Cores {
		if c.ID != i+1 {
			return fmt.Errorf("soc %s: core at index %d has ID %d, want %d", s.Name, i, c.ID, i+1)
		}
		if err := s.validateCore(c); err != nil {
			return err
		}
	}
	if err := s.validateHierarchy(); err != nil {
		return err
	}
	for _, p := range s.Precedences {
		if s.Core(p.Before) == nil || s.Core(p.After) == nil {
			return fmt.Errorf("soc %s: precedence %d<%d names unknown core", s.Name, p.Before, p.After)
		}
		if p.Before == p.After {
			return fmt.Errorf("soc %s: precedence %d<%d is self-referential", s.Name, p.Before, p.After)
		}
	}
	for _, cc := range s.Concurrencies {
		if s.Core(cc.A) == nil || s.Core(cc.B) == nil {
			return fmt.Errorf("soc %s: concurrency %d~%d names unknown core", s.Name, cc.A, cc.B)
		}
		if cc.A == cc.B {
			return fmt.Errorf("soc %s: concurrency %d~%d is self-referential", s.Name, cc.A, cc.B)
		}
	}
	if s.PowerMax < 0 {
		return fmt.Errorf("soc %s: negative power limit %d", s.Name, s.PowerMax)
	}
	return nil
}

func (s *SOC) validateCore(c *Core) error {
	if c.Name == "" {
		return fmt.Errorf("soc %s: core %d has no name", s.Name, c.ID)
	}
	if c.Inputs < 0 || c.Outputs < 0 || c.Bidirs < 0 {
		return fmt.Errorf("soc %s: core %d (%s) has negative terminal counts", s.Name, c.ID, c.Name)
	}
	if c.Inputs+c.Outputs+c.Bidirs+len(c.ScanChains) == 0 {
		return fmt.Errorf("soc %s: core %d (%s) has no terminals and no scan", s.Name, c.ID, c.Name)
	}
	for j, l := range c.ScanChains {
		if l <= 0 {
			return fmt.Errorf("soc %s: core %d (%s) scan chain %d has non-positive length %d", s.Name, c.ID, c.Name, j, l)
		}
	}
	if c.Test.Patterns <= 0 {
		return fmt.Errorf("soc %s: core %d (%s) has non-positive pattern count %d", s.Name, c.ID, c.Name, c.Test.Patterns)
	}
	if c.Test.BISTEngine < -1 {
		return fmt.Errorf("soc %s: core %d (%s) has invalid BIST engine %d", s.Name, c.ID, c.Name, c.Test.BISTEngine)
	}
	if c.Test.Kind == BISTTest && c.Test.BISTEngine < 0 {
		return fmt.Errorf("soc %s: core %d (%s) is a BIST test with no engine", s.Name, c.ID, c.Name)
	}
	if c.Test.Power < 0 {
		return fmt.Errorf("soc %s: core %d (%s) has negative power %d", s.Name, c.ID, c.Name, c.Test.Power)
	}
	return nil
}

func (s *SOC) validateHierarchy() error {
	for _, c := range s.Cores {
		if c.Parent != 0 && s.Core(c.Parent) == nil {
			return fmt.Errorf("soc %s: core %d (%s) has unknown parent %d", s.Name, c.ID, c.Name, c.Parent)
		}
		// Walk up; a chain longer than the core count means a cycle.
		steps := 0
		for p := c.Parent; p != 0; p = s.Core(p).Parent {
			steps++
			if steps > len(s.Cores) {
				return fmt.Errorf("soc %s: hierarchy cycle involving core %d (%s)", s.Name, c.ID, c.Name)
			}
		}
	}
	return nil
}
