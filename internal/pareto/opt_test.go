package pareto

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/wrapper"
)

// TestSnapDownBoundaries checks the table lookup of SnapDown against a
// linear scan of the Pareto points at every width from below 1 to past
// MaxWidth: on a set with known Pareto widths, on the random cores of
// TestMinAreaMatchesExhaustive, and on every Capped(c) view of each for c
// in 1..MaxWidth, which share the parent's table as a prefix.
func TestSnapDownBoundaries(t *testing.T) {
	// 8 chains of 100 bits: Pareto widths are exactly the divisors-driven
	// drop positions of the staircase; read them from the computed set.
	c := scanCore([]int{100, 100, 100, 100, 100, 100, 100, 100}, 12, 8, 30)
	s, err := Compute(c, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i, full := range append([]*Set{s}, randomSets(t)...) {
		for cap := 1; cap <= full.MaxWidth; cap++ {
			view, err := full.Capped(cap)
			if err != nil {
				t.Fatal(err)
			}
			checkSnapDown(t, fmt.Sprintf("set %d capped at %d", i, cap), view)
		}
	}
}

// checkSnapDown compares s.SnapDown with a linear scan of s.Points.
func checkSnapDown(t *testing.T, name string, s *Set) {
	t.Helper()
	ref := func(w int) (int, bool) {
		best := 0
		for _, p := range s.Points {
			if p.Width <= w {
				best = p.Width
			}
		}
		return best, best != 0
	}
	for _, w := range []int{-3, 0} {
		if got, ok := s.SnapDown(w); got != 0 || ok {
			t.Fatalf("%s: SnapDown(%d) = (%d,%v), want (0,false)", name, w, got, ok)
		}
	}
	if got, _ := s.SnapDown(s.MaxWidth + 100); got != s.MaxParetoWidth() {
		t.Fatalf("%s: SnapDown(MaxWidth+100) = %d, want MaxParetoWidth %d", name, got, s.MaxParetoWidth())
	}
	for w := -1; w <= s.MaxWidth+2; w++ {
		got, gotOK := s.SnapDown(w)
		if want, wantOK := ref(w); got != want || gotOK != wantOK {
			t.Fatalf("%s: SnapDown(%d) = (%d,%v), want (%d,%v)", name, w, got, gotOK, want, wantOK)
		}
	}
}

// randomSets returns the Pareto sets of 200 seeded random cores, each
// under a random width cap in 1..32.
func randomSets(t *testing.T) []*Set {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	out := make([]*Set, 200)
	for i := range out {
		nchains := rng.Intn(10)
		chains := make([]int, nchains)
		for j := range chains {
			chains[j] = rng.Intn(150)
		}
		c := scanCore(chains, rng.Intn(200), rng.Intn(200), 1+rng.Intn(100))
		s, err := Compute(c, 1+rng.Intn(32))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = s
	}
	return out
}

// TestMinAreaMatchesExhaustive asserts the Pareto-points-only MinArea
// equals the exhaustive min over w of w·T(w) on random cores: T is
// constant between Pareto points, so the area minimum can only sit at one.
func TestMinAreaMatchesExhaustive(t *testing.T) {
	for i, s := range randomSets(t) {
		exhaustive := int64(1) * s.Time(1)
		for w := 2; w <= s.MaxWidth; w++ {
			if a := int64(w) * s.Time(w); a < exhaustive {
				exhaustive = a
			}
		}
		if got := s.MinArea(); got != exhaustive {
			t.Fatalf("case %d (maxWidth=%d): MinArea = %d, exhaustive scan = %d\npoints: %+v",
				i, s.MaxWidth, got, exhaustive, s.Points)
		}
	}
}

// TestTableMatchesDesignWrapper: at every width, the set's table and
// every Capped(c) view, c in 1..MaxWidth, give the testing time, the scan
// lengths and the preemption penalty of DesignWrapper's design.
func TestTableMatchesDesignWrapper(t *testing.T) {
	c := scanCore([]int{50, 40, 30, 20, 10}, 6, 4, 20)
	s, err := Compute(c, 24)
	if err != nil {
		t.Fatal(err)
	}
	for w := 1; w <= s.MaxWidth; w++ {
		d, err := wrapper.DesignWrapper(c, w)
		if err != nil {
			t.Fatal(err)
		}
		for cap := w; cap <= s.MaxWidth; cap++ {
			view, err := s.Capped(cap)
			if err != nil {
				t.Fatal(err)
			}
			si, so := view.Scan(w)
			if view.Time(w) != d.TestTime() || si != d.ScanInMax || so != d.ScanOutMax || view.Penalty(w) != d.PreemptionPenalty() {
				t.Fatalf("width %d capped at %d: time %d, scan %d/%d, penalty %d; DesignWrapper gives %d, %d/%d, %d",
					w, cap, view.Time(w), si, so, view.Penalty(w), d.TestTime(), d.ScanInMax, d.ScanOutMax, d.PreemptionPenalty())
			}
		}
	}
}
