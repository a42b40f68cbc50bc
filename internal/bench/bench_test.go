package bench

import (
	"testing"

	"repro/internal/pareto"
	"repro/internal/soc"
)

func TestAllBenchmarksValidate(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if err := Demo().Validate(); err != nil {
		t.Errorf("demo8: %v", err)
	}
}

func TestCoreCountsMatchPaper(t *testing.T) {
	counts := map[string]int{
		"d695":       10,
		"p22810like": 28,
		"p34392like": 19,
		"p93791like": 32,
	}
	for name, want := range counts {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(s.Cores); got != want {
			t.Errorf("%s has %d cores, want %d", name, got, want)
		}
	}
}

func TestCalibrationExact(t *testing.T) {
	targets := map[string]int64{
		"p22810like": AreaP22810,
		"p34392like": AreaP34392,
		"p93791like": AreaP93791,
	}
	for name, want := range targets {
		s, _ := ByName(name)
		got, err := MeasuredArea(s)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s area = %d, calibration target %d", name, got, want)
		}
	}
}

func TestD695AreaNearPaper(t *testing.T) {
	a, err := MeasuredArea(D695())
	if err != nil {
		t.Fatal(err)
	}
	diff := float64(a-AreaD695Paper) / float64(AreaD695Paper)
	t.Logf("d695 area %d vs paper-implied %d (%.3f%%)", a, int64(AreaD695Paper), 100*diff)
	if diff < -0.01 || diff > 0.01 {
		t.Errorf("d695 reconstruction drifted beyond 1%%: %.3f%%", 100*diff)
	}
}

func TestBottleneckCore18(t *testing.T) {
	s := P34392Like()
	c := s.Core(18)
	ps, err := pareto.Compute(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.MaxParetoWidth(); got != 10 {
		t.Errorf("core 18 max Pareto width = %d, want 10", got)
	}
	if got := ps.MinTime(); got != 544579 {
		t.Errorf("core 18 min time = %d, want 544579 (paper)", got)
	}
	// T(9) within 10% of T(10): the α heuristic picks 9, δ must rescue.
	t9, t10 := ps.Time(9), ps.Time(10)
	if t9 <= t10 || t9 > t10*110/100 {
		t.Errorf("T(9)=%d not in (T(10), 1.1·T(10)]: δ narrative broken", t9)
	}
	if pref := ps.PreferredWidth(10, 0); pref != 9 {
		t.Errorf("α=10 δ=0 preferred width = %d, want 9", pref)
	}
	if pref := ps.PreferredWidth(10, 1); pref != 10 {
		t.Errorf("α=10 δ=1 preferred width = %d, want 10", pref)
	}
	// No other core exceeds the bottleneck's minimum time.
	for _, other := range s.Cores {
		po, err := pareto.Compute(other, 64)
		if err != nil {
			t.Fatal(err)
		}
		if po.MinTime() > 544579 {
			t.Errorf("core %d min time %d exceeds the designated bottleneck", other.ID, po.MinTime())
		}
	}
}

func TestFig1Core6(t *testing.T) {
	s := P93791Like()
	c := s.Core(6)
	ps, err := pareto.Compute(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.MaxParetoWidth(); got != 47 {
		t.Errorf("core 6 max Pareto width = %d, want 47", got)
	}
	for w := 47; w <= 64; w++ {
		if got := ps.Time(w); got != 114317 {
			t.Errorf("core 6 T(%d) = %d, want plateau 114317", w, got)
		}
	}
	if t46 := ps.Time(46); t46 <= 114317 {
		t.Errorf("core 6 T(46) = %d, must exceed the plateau", t46)
	}
}

func TestBuildersReturnIsolatedClones(t *testing.T) {
	a := P22810Like()
	b := P22810Like()
	a.Cores[0].Test.Patterns = 99999
	a.Cores[0].ScanChains = append(a.Cores[0].ScanChains, 12345)
	if b.Cores[0].Test.Patterns == 99999 {
		t.Fatal("builders share pattern state across calls")
	}
	c := P22810Like()
	if c.Cores[0].Test.Patterns == 99999 {
		t.Fatal("mutation leaked into the cached benchmark")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"d695", "p22810like", "p22810", "p34392like", "p93791like", "demo8", "demo"} {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown name accepted")
	}
}

func TestD695KnownCores(t *testing.T) {
	s := D695()
	c := s.Core(9) // s35932: 32 chains of 54, 12 patterns
	if c.Name != "s35932" || len(c.ScanChains) != 32 || c.ScanChains[0] != 54 || c.Test.Patterns != 12 {
		t.Errorf("s35932 data wrong: %+v", c)
	}
	if got := c.ScanBits(); got != 1728 {
		t.Errorf("s35932 scan bits = %d, want 1728", got)
	}
	c2 := s.Core(2) // c7552: combinational
	if len(c2.ScanChains) != 0 || c2.Inputs != 207 {
		t.Errorf("c7552 data wrong: %+v", c2)
	}
}

func TestSyntheticSOCsHaveRichStructure(t *testing.T) {
	// The stand-ins must exercise the full constraint machinery: some
	// hierarchy, some BIST engines with sharing, a mix of combinational
	// and scan cores.
	for _, name := range []string{"p22810like", "p34392like", "p93791like"} {
		s, _ := ByName(name)
		var hasParent, comb, scan bool
		engines := make(map[int]int)
		for _, c := range s.Cores {
			if c.Parent != 0 {
				hasParent = true
			}
			if len(c.ScanChains) == 0 {
				comb = true
			} else {
				scan = true
			}
			if c.Test.BISTEngine >= 0 {
				engines[c.Test.BISTEngine]++
			}
		}
		if !hasParent {
			t.Errorf("%s has no hierarchy", name)
		}
		if !comb || !scan {
			t.Errorf("%s lacks core-type mix (comb=%v scan=%v)", name, comb, scan)
		}
		shared := false
		for _, n := range engines {
			if n >= 2 {
				shared = true
			}
		}
		if !shared {
			t.Errorf("%s has no shared BIST engine", name)
		}
	}
}

func TestChainsHelper(t *testing.T) {
	got := chains(2, 10, 3, 7)
	want := []int{10, 10, 7, 7, 7}
	if len(got) != len(want) {
		t.Fatalf("chains = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chains = %v, want %v", got, want)
		}
	}
	if r := repeat(3, 5); len(r) != 3 || r[0] != 5 {
		t.Fatalf("repeat = %v", r)
	}
}

var _ = soc.SOC{}
