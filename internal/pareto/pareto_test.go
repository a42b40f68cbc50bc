package pareto

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/soc"
	"repro/internal/wrapper"
)

func scanCore(chains []int, in, out, patterns int) *soc.Core {
	return &soc.Core{
		ID: 1, Name: "t", Inputs: in, Outputs: out,
		ScanChains: chains,
		Test:       soc.Test{Patterns: patterns, BISTEngine: -1},
	}
}

func TestComputeBasics(t *testing.T) {
	c := scanCore([]int{20, 20, 20, 20}, 8, 8, 10)
	s, err := Compute(c, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s.CoreID != 1 || s.MaxWidth != 16 {
		t.Fatalf("header wrong: %+v", s)
	}
	// Points strictly increasing in width, strictly decreasing in time,
	// starting at width 1.
	if s.Points[0].Width != 1 {
		t.Fatalf("first Pareto width = %d, want 1", s.Points[0].Width)
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].Width <= s.Points[i-1].Width || s.Points[i].Time >= s.Points[i-1].Time {
			t.Fatalf("points not strictly ordered: %+v", s.Points)
		}
	}
	// With 4 equal chains, width 5+ cannot beat width 4 on scan, so the
	// max Pareto width is small.
	if got := s.MaxParetoWidth(); got > 8 {
		t.Fatalf("MaxParetoWidth = %d, unexpectedly large", got)
	}
}

func TestTimeMatchesWrapper(t *testing.T) {
	c := scanCore([]int{30, 20, 10}, 5, 7, 12)
	s, err := Compute(c, 12)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= 12; w++ {
		d, err := wrapper.DesignWrapper(c, w)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := s.Time(w), d.TestTime(); got != want {
			t.Fatalf("Time(%d) = %d, wrapper says %d", w, got, want)
		}
	}
	// Saturation above MaxWidth.
	if got := s.Time(99); got != s.Time(12) {
		t.Fatalf("Time(99) = %d, want saturation to %d", got, s.Time(12))
	}
}

func TestTimePanicsBelowOne(t *testing.T) {
	c := scanCore([]int{4}, 1, 1, 2)
	s, _ := Compute(c, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Time(0) did not panic")
		}
	}()
	s.Time(0)
}

func TestSnapDown(t *testing.T) {
	c := scanCore([]int{20, 20, 20, 20}, 0, 0, 10)
	s, _ := Compute(c, 16)
	for w := 1; w <= 16; w++ {
		got, ok := s.SnapDown(w)
		if !ok {
			t.Fatalf("SnapDown(%d) failed", w)
		}
		if got > w {
			t.Fatalf("SnapDown(%d) = %d > w", w, got)
		}
		if s.Time(got) != s.Time(w) {
			t.Fatalf("SnapDown(%d)=%d loses time: %d vs %d", w, got, s.Time(got), s.Time(w))
		}
	}
	if _, ok := s.SnapDown(0); ok {
		t.Fatal("SnapDown(0) succeeded")
	}
}

func TestPreferredWidth(t *testing.T) {
	// Chains engineered so times step visibly: 8 chains of 100.
	c := scanCore([]int{100, 100, 100, 100, 100, 100, 100, 100}, 0, 0, 50)
	s, _ := Compute(c, 16)
	wstar := s.MaxParetoWidth()
	// percent=0: always the highest Pareto width.
	if got := s.PreferredWidth(0, 0); got != wstar {
		t.Fatalf("PreferredWidth(0,0) = %d, want %d", got, wstar)
	}
	// Large percent: allows narrower widths.
	w100 := s.PreferredWidth(100, 0)
	if w100 > wstar {
		t.Fatalf("PreferredWidth(100,0) = %d > w* %d", w100, wstar)
	}
	if s.Time(w100) > s.MinTime()*2 {
		t.Fatalf("PreferredWidth(100,0)=%d has T=%d > 2·Tmin=%d", w100, s.Time(w100), 2*s.MinTime())
	}
	// Delta promotion: a preferred width within delta of w* snaps to w*.
	for delta := 0; delta <= 16; delta++ {
		got := s.PreferredWidth(100, delta)
		if wstar-w100 <= delta && got != wstar {
			t.Fatalf("delta=%d did not promote %d to %d", delta, w100, wstar)
		}
	}
}

func TestCapped(t *testing.T) {
	c := scanCore([]int{50, 40, 30, 20, 10}, 6, 4, 20)
	full, err := Compute(c, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int{1, 3, 7, 15, 32, 100} {
		view, err := full.Capped(cap)
		if err != nil {
			t.Fatal(err)
		}
		eff := cap
		if eff > 32 {
			eff = 32
		}
		direct, err := Compute(c, eff)
		if err != nil {
			t.Fatal(err)
		}
		if view.MaxWidth != direct.MaxWidth || len(view.Points) != len(direct.Points) {
			t.Fatalf("cap=%d: view %+v vs direct %+v", cap, view.Points, direct.Points)
		}
		for w := 1; w <= eff; w++ {
			if view.Time(w) != direct.Time(w) {
				t.Fatalf("cap=%d Time(%d): %d vs %d", cap, w, view.Time(w), direct.Time(w))
			}
		}
		if view.MinArea() != direct.MinArea() {
			t.Fatalf("cap=%d MinArea: %d vs %d", cap, view.MinArea(), direct.MinArea())
		}
	}
	if _, err := full.Capped(0); err == nil {
		t.Fatal("Capped(0) accepted")
	}
}

func TestMinArea(t *testing.T) {
	// For typical scan cores min area sits at width 1: w·T(w) grows with w.
	c := scanCore([]int{40, 40}, 4, 4, 25)
	s, _ := Compute(c, 8)
	if got, want := s.MinArea(), 1*s.Time(1); got != want {
		t.Fatalf("MinArea = %d, want %d (at w=1)", got, want)
	}
}

func TestStaircase(t *testing.T) {
	c := scanCore([]int{10, 10}, 2, 2, 5)
	s, _ := Compute(c, 6)
	st := s.Staircase()
	if len(st) != 6 {
		t.Fatalf("staircase has %d points, want 6", len(st))
	}
	for i, p := range st {
		if p.Width != i+1 || p.Time != s.Time(i+1) {
			t.Fatalf("staircase[%d] = %+v", i, p)
		}
	}
}

func TestComputeAll(t *testing.T) {
	s := &soc.SOC{
		Name: "t",
		Cores: []*soc.Core{
			scanCore([]int{10}, 1, 1, 3),
			{ID: 2, Name: "u", Inputs: 5, Outputs: 5, Test: soc.Test{Patterns: 2, BISTEngine: -1}},
		},
	}
	s.Cores[0].ID = 1
	sets, err := ComputeAll(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 || sets[1] == nil || sets[2] == nil {
		t.Fatalf("ComputeAll = %v", sets)
	}
}

func TestComputeErrors(t *testing.T) {
	c := scanCore([]int{4}, 1, 1, 2)
	if _, err := Compute(c, 0); err == nil {
		t.Fatal("maxWidth 0 accepted")
	}
}

// Property: for random cores, the staircase is non-increasing, Pareto
// points are exactly the drop positions, and SnapDown is consistent.
func TestStaircaseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := &soc.Core{
			ID: 1, Name: "r",
			Inputs:  rng.Intn(40),
			Outputs: rng.Intn(40),
			Test:    soc.Test{Patterns: 1 + rng.Intn(100), BISTEngine: -1},
		}
		for j := rng.Intn(10); j > 0; j-- {
			c.ScanChains = append(c.ScanChains, 1+rng.Intn(80))
		}
		if c.Inputs+c.Outputs+len(c.ScanChains) == 0 {
			c.Inputs = 1
		}
		s, err := Compute(c, 24)
		if err != nil {
			return false
		}
		isPareto := make(map[int]bool)
		for _, p := range s.Points {
			isPareto[p.Width] = true
		}
		for w := 2; w <= 24; w++ {
			if s.Time(w) > s.Time(w-1) {
				return false // staircase must not rise
			}
			drop := s.Time(w) < s.Time(w-1)
			if drop != isPareto[w] {
				return false // Pareto points are exactly the drops
			}
		}
		return isPareto[1] && s.MinTime() == s.Time(24)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
