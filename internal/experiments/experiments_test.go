package experiments

import (
	"testing"

	"repro/internal/bench"
)

// Small grids keep these tests quick; socbench runs the full defaults.
var (
	testPercents = []int{5, 10, 20}
	testDeltas   = []int{0, 1}
)

func TestTable1Shapes(t *testing.T) {
	s := bench.D695()
	rows, err := Table1(s, testPercents, testDeltas, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for i, r := range rows {
		if r.LowerBound <= 0 {
			t.Fatalf("row %d: LB %d", i, r.LowerBound)
		}
		// Every regime respects the lower bound.
		for _, v := range []int64{r.NonPreemptive, r.Preemptive, r.PowerConstrained} {
			if v < r.LowerBound {
				t.Fatalf("W=%d: time %d below LB %d", r.TAMWidth, v, r.LowerBound)
			}
		}
		// Larger widths never slow the non-preemptive schedule down much:
		// allow small heuristic inversions but not gross ones.
		if i > 0 && r.NonPreemptive > rows[i-1].NonPreemptive {
			t.Errorf("non-preemptive time rose from W=%d (%d) to W=%d (%d)",
				rows[i-1].TAMWidth, rows[i-1].NonPreemptive, r.TAMWidth, r.NonPreemptive)
		}
	}
}

func TestTable1WidthsPerSOC(t *testing.T) {
	if w := Table1Widths("p34392like"); w[1] != 24 || w[3] != 32 {
		t.Fatalf("p34392 widths %v", w)
	}
	if w := Table1Widths("d695"); w[3] != 64 {
		t.Fatalf("d695 widths %v", w)
	}
}

func TestFig1PlateauStructure(t *testing.T) {
	s := bench.P93791Like()
	pts, err := Fig1(s, 6, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 64 {
		t.Fatalf("got %d points", len(pts))
	}
	// The engineered core: Pareto plateau 47..64 at 114317 cycles.
	for _, p := range pts[46:] {
		if p.Time != 114317 {
			t.Fatalf("T(%d) = %d, want 114317", p.Width, p.Time)
		}
	}
	if !pts[46].Pareto {
		t.Fatal("width 47 not marked Pareto")
	}
	for _, p := range pts[47:] {
		if p.Pareto {
			t.Fatalf("width %d marked Pareto beyond the plateau start", p.Width)
		}
	}
	if _, err := Fig1(s, 99, 64); err == nil {
		t.Fatal("unknown core accepted")
	}
}

func TestFig9AndTable2(t *testing.T) {
	s := bench.Demo()
	f9, err := Fig9Sweep(s, 6, 20, testPercents, testDeltas, 0)
	if err != nil {
		t.Fatal(err)
	}
	sw := f9.Sweep
	if len(sw.Samples) != 15 {
		t.Fatalf("%d samples", len(sw.Samples))
	}
	res, err := Table2(f9)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinTime != sw.MinTime || res.MinVolume != sw.MinVolume {
		t.Fatal("Table2 minima disagree with the sweep")
	}
	if len(res.Rows) == 0 {
		t.Fatal("no gamma rows")
	}
	for _, r := range res.Rows {
		if r.WEff < 6 || r.WEff > 20 {
			t.Fatalf("γ=%v effective width %d outside sweep", r.Gamma, r.WEff)
		}
		if r.VolAtW != int64(r.WEff)*r.TimeAtW {
			t.Fatalf("γ=%v: D != W·T", r.Gamma)
		}
		if r.CostMin < 1 {
			t.Fatalf("γ=%v: C_min %v < 1", r.Gamma, r.CostMin)
		}
	}
}

func TestTable2GammasPerPaper(t *testing.T) {
	if g := Table2Gammas("d695"); len(g) != 3 || g[0] != 0.1 {
		t.Fatalf("d695 gammas %v", g)
	}
	if g := Table2Gammas("p22810like"); g[0] != 0.01 {
		t.Fatalf("p22810 gammas %v", g)
	}
	if g := Table2Gammas("unknown"); len(g) != 3 {
		t.Fatalf("default gammas %v", g)
	}
}

// TestAblationDeltaNarrative reproduces the paper's §6 p34392 story: with
// α=10 and δ=0 the bottleneck core prefers 9 wires and the SOC misses its
// minimum; sweeping δ recovers T = 544579 at W=32.
func TestAblationDeltaNarrative(t *testing.T) {
	rows, err := AblationDelta(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.BottleneckPrefDelta0 != 9 {
			t.Errorf("W=%d: δ=0 pref = %d, want 9", r.TAMWidth, r.BottleneckPrefDelta0)
		}
		if r.MakespanDeltaSwept > r.MakespanDelta0 {
			t.Errorf("W=%d: δ sweep worsened %d -> %d", r.TAMWidth, r.MakespanDelta0, r.MakespanDeltaSwept)
		}
		if r.TAMWidth == 32 {
			// At α=10 alone the swept-δ schedule lands within 0.5% of the
			// bottleneck bound; the exact 544579 needs the full α sweep
			// (asserted in TestFullSweepHitsBottleneckMinimum).
			if r.MakespanDeltaSwept > 544579*1005/1000 {
				t.Errorf("W=32 with δ swept: %d, want within 0.5%% of 544579", r.MakespanDeltaSwept)
			}
			if r.MakespanDelta0 <= 544579 {
				t.Errorf("W=32 δ=0 already optimal (%d): narrative lost", r.MakespanDelta0)
			}
		}
	}
}

func TestBaselinesRows(t *testing.T) {
	s := bench.D695()
	rows, err := Baselines(s, []int{16, 32}, 2, testPercents, testDeltas, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Flexible <= 0 || r.FixedWidth <= 0 || r.NFDH <= 0 || r.FFDH <= 0 {
			t.Fatalf("empty cells: %+v", r)
		}
		// FFDH <= NFDH is a theorem for classical height-minimizing shelf
		// packing but NOT for the time-shelf transposition here (shelf span
		// is the longest member's test time, so an earlier-fit can lengthen
		// a shelf). Log the relation rather than asserting it.
		t.Logf("W=%d flexible=%d fixed=%d NFDH=%d FFDH=%d", r.TAMWidth, r.Flexible, r.FixedWidth, r.NFDH, r.FFDH)
	}
}

// TestFullSweepHitsBottleneckMinimum pins the paper's headline p34392
// result: with the full parameter sweep, T(W=32) equals the bottleneck
// core's minimum testing time, 544579 cycles.
func TestFullSweepHitsBottleneckMinimum(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	s := bench.P34392Like()
	rows, err := Table1(s, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	last := rows[len(rows)-1]
	if last.TAMWidth != 32 || last.NonPreemptive != 544579 {
		t.Errorf("W=%d non-preemptive = %d, want exactly 544579", last.TAMWidth, last.NonPreemptive)
	}
}

func TestAblationHeuristicsRows(t *testing.T) {
	s := bench.D695()
	rows, err := AblationHeuristics(s, []int{32}, testPercents, testDeltas, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// Greedy heuristics are not monotone: an ablated variant can win a
	// particular (SOC, W) point — at d695 W=32 on this grid, disabling the
	// widening heuristic gains 2.7% (24,508 to 23,849 cycles).
	// The full algorithm must stay within 5% of the best variant.
	best := r.Full
	for _, v := range []int64{r.NoInsert, r.NoWiden, r.Neither} {
		if v < best {
			best = v
		}
	}
	if r.Full*100 > best*105 {
		t.Errorf("full %d more than 5%% behind the best ablated variant %d: %+v", r.Full, best, r)
	}
	t.Logf("full=%d noInsert=%d noWiden=%d neither=%d", r.Full, r.NoInsert, r.NoWiden, r.Neither)
}
