package lb

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/pareto"
	"repro/internal/soc"
)

// TestPaperLowerBounds pins the calibrated synthetic SOCs to the paper's
// published Table 1 lower-bound column. These must match EXACTLY: the
// benchmark calibration exists to reproduce them.
func TestPaperLowerBounds(t *testing.T) {
	cases := []struct {
		soc    string
		widths []int
		want   []int64
	}{
		{"p22810like", []int{16, 32, 48, 64}, []int64{421473, 210737, 140491, 105369}},
		{"p34392like", []int{16, 24, 28, 32}, []int64{936882, 624588, 544579, 544579}},
		{"p93791like", []int{16, 32, 48, 64}, []int64{1749388, 874694, 583130, 437347}},
	}
	for _, tc := range cases {
		s, err := bench.ByName(tc.soc)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range tc.widths {
			b, err := Compute(s, w, 64)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.Value(); got != tc.want[i] {
				t.Errorf("%s LB(%d) = %d, paper says %d", tc.soc, w, got, tc.want[i])
			}
		}
	}
}

// TestD695LowerBounds records the reconstructed d695 against the paper
// within tolerance: the reconstruction is not calibrated, and its area
// lands 0.28% below the paper's (TestD695AreaNearPaper).
func TestD695LowerBounds(t *testing.T) {
	s := bench.D695()
	paper := map[int]int64{16: 41232, 32: 20616, 48: 13744, 64: 10308}
	for w, want := range paper {
		b, err := Compute(s, w, 64)
		if err != nil {
			t.Fatal(err)
		}
		got := b.Value()
		diff := float64(got-want) / float64(want)
		if diff < -0.01 || diff > 0.01 {
			t.Errorf("d695 LB(%d) = %d, paper %d (%.2f%% off, tolerance 1%%)", w, got, want, 100*diff)
		}
	}
}

func TestBottleneckDominates(t *testing.T) {
	// One huge core with few chains: its minimum time exceeds area/W at
	// wide TAMs, so the bottleneck term must take over.
	s := &soc.SOC{
		Name: "bneck",
		Cores: []*soc.Core{
			{ID: 1, Name: "big", Inputs: 2, Outputs: 2, ScanChains: []int{1000}, Test: soc.Test{Patterns: 100, BISTEngine: -1}},
			{ID: 2, Name: "tiny", Inputs: 2, Outputs: 2, Test: soc.Test{Patterns: 5, BISTEngine: -1}},
		},
	}
	b, err := Compute(s, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b.Value() != b.BottleneckBound {
		t.Fatalf("bottleneck %d should dominate area bound %d", b.BottleneckBound, b.AreaBound)
	}
	// The single 1000-bit chain caps the core at width ~1: its time barely
	// improves with w, so the bound is near (1+1002)·100.
	if b.BottleneckBound < 100000 {
		t.Fatalf("bottleneck bound %d implausibly small", b.BottleneckBound)
	}
}

func TestAreaBoundScalesWithWidth(t *testing.T) {
	s := bench.P22810Like()
	full, err := Compute(s, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	area := full.MinArea
	if area != bench.AreaP22810 {
		t.Fatalf("MinArea = %d, calibration target %d", area, bench.AreaP22810)
	}
	for _, w := range []int{16, 32, 48} {
		b, err := Compute(s, w, 64)
		if err != nil {
			t.Fatal(err)
		}
		want := (area + int64(w) - 1) / int64(w)
		if b.AreaBound != want {
			t.Errorf("AreaBound(%d) = %d, want ⌈%d/%d⌉ = %d", w, b.AreaBound, area, w, want)
		}
	}
}

func TestComputeErrors(t *testing.T) {
	s := bench.D695()
	if _, err := Compute(s, 0, 64); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := Compute(s, 16, 0); err == nil {
		t.Error("max width 0 accepted")
	}
}

func TestWidthCapAtW(t *testing.T) {
	// At W < 64 the per-core cap is W: the bottleneck bound uses T_i(W),
	// which is never smaller than T_i(64).
	s := bench.D695()
	b16, _ := Compute(s, 16, 64)
	b64, _ := Compute(s, 64, 64)
	if b16.BottleneckBound < b64.BottleneckBound {
		t.Fatalf("bottleneck at W=16 (%d) below W=64 (%d)", b16.BottleneckBound, b64.BottleneckBound)
	}
}

// TestFromSetsMatchesCompute asserts the cache-fed bound equals the
// self-computing one on every benchmark SOC across the Table 1 widths.
func TestFromSetsMatchesCompute(t *testing.T) {
	for _, name := range []string{"d695", "p22810like", "p34392like", "p93791like", "demo8"} {
		s, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		sets, err := pareto.ComputeAll(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{8, 16, 32, 48, 64, 80} {
			want, err := Compute(s, w, 64)
			if err != nil {
				t.Fatal(err)
			}
			got, err := FromSets(sets, w, 64)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s LB(%d): FromSets %+v, Compute %+v", name, w, got, want)
			}
		}
	}
}

// TestFromSetsRejectsUndersizedSets pins the strictness guarantee: sets
// computed under a smaller cap than min(w, maxWidth) are an error, not a
// silently loosened bound.
func TestFromSetsRejectsUndersizedSets(t *testing.T) {
	s := bench.D695()
	sets, err := pareto.ComputeAll(s, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromSets(sets, 32, 64); err == nil {
		t.Fatal("FromSets accepted sets capped below min(w, maxWidth)")
	}
	if _, err := FromSets(sets, 8, 64); err != nil {
		t.Fatalf("FromSets rejected adequately-capped sets: %v", err)
	}
	if _, err := FromSets(sets, 0, 64); err == nil {
		t.Fatal("FromSets accepted w=0")
	}
	if _, err := FromSets(sets, 8, 0); err == nil {
		t.Fatal("FromSets accepted maxWidth=0")
	}
}
