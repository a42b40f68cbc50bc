package sched

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/wrapper"
)

// sweepBestRef is the pre-deduplication sweep and the differential-testing
// oracle for SweepBest: a plain sequential Run of every grid point, the
// first point of the smallest makespan winning, or the first error when
// every point fails.
func (o *Optimizer) sweepBestRef(params Params, percents, deltas []int) (*Schedule, error) {
	var best *Schedule
	var firstErr error
	for _, p := range buildGrid(params, percents, deltas) {
		sch, err := o.Run(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best == nil || sch.Makespan < best.Makespan {
			best = sch
		}
	}
	if best == nil {
		return nil, firstErr
	}
	return best, nil
}

// TestSweepBestDedupMatchesFullGrid asserts the tentpole bar for the grid
// deduplication: SweepBest (unique preferred-width fingerprints only) must
// return a schedule identical — field for field, wire for wire, params
// echo included — to the retained pre-dedup reference that runs every
// grid point, on both benchmark SOCs, sequentially and with a worker pool.
func TestSweepBestDedupMatchesFullGrid(t *testing.T) {
	for _, name := range []string{"d695", "demo8"} {
		s, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := New(s, DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{16, 32} {
			for _, workers := range []int{1, 4} {
				p := Params{TAMWidth: w, Workers: workers}
				got, err := opt.SweepBest(p, detPercents, detDeltas)
				if err != nil {
					t.Fatalf("%s W=%d workers=%d: %v", name, w, workers, err)
				}
				want, err := opt.sweepBestRef(p, detPercents, detDeltas)
				if err != nil {
					t.Fatalf("%s W=%d workers=%d (ref): %v", name, w, workers, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s W=%d workers=%d: dedup sweep differs\n got  makespan=%d params=%+v\n want makespan=%d params=%+v",
						name, w, workers, got.Makespan, got.Params, want.Makespan, want.Params)
				}
			}
		}
	}
}

// TestSweepBestDedupCollapsesGrid sanity-checks that the fingerprinting
// actually collapses the default grid (the perf win exists) while keeping
// representatives in grid order.
func TestSweepBestDedupCollapsesGrid(t *testing.T) {
	s := bench.D695()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	grid := buildGrid(Params{TAMWidth: 32}, nil, nil)
	_, sets, err := opt.Setup(grid[0])
	if err != nil {
		t.Fatal(err)
	}
	reps := gridReps(grid, sets)
	if len(reps) == 0 || len(reps) >= len(grid) {
		t.Fatalf("dedup collapsed %d grid points to %d; expected a strict, non-empty reduction", len(grid), len(reps))
	}
	for i := 1; i < len(reps); i++ {
		if reps[i] <= reps[i-1] {
			t.Fatalf("representatives out of grid order: %v", reps)
		}
	}
	if reps[0] != 0 {
		t.Fatalf("first grid point must be a representative, got %d", reps[0])
	}
	t.Logf("d695 W=32 default grid: %d points -> %d unique runs", len(grid), len(reps))
}

// TestSweepBestDedupEveryPointFails pins the error path: an unsatisfiable
// power budget makes every grid point deadlock, and the dedup sweep must
// surface the same (lowest-grid-index) error as the full grid, at any
// worker count.
func TestSweepBestDedupEveryPointFails(t *testing.T) {
	for _, name := range []string{"d695", "demo8"} {
		s, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := New(s, DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			p := Params{TAMWidth: 32, PowerMax: 1, Workers: workers}
			_, gotErr := opt.SweepBest(p, detPercents, detDeltas)
			_, wantErr := opt.sweepBestRef(p, detPercents, detDeltas)
			if gotErr == nil || wantErr == nil {
				t.Fatalf("%s workers=%d: expected both paths to fail, got %v / %v", name, workers, gotErr, wantErr)
			}
			if gotErr.Error() != wantErr.Error() {
				t.Errorf("%s workers=%d: errors differ:\n got  %v\n want %v", name, workers, gotErr, wantErr)
			}
		}
	}
}

// TestDesignCacheMatchesDesignWrapper asserts the (core, width) design
// cache holds exactly what DesignWrapper would produce, over the full
// width range, and that the cached-design Verify accepts real schedules.
func TestDesignCacheMatchesDesignWrapper(t *testing.T) {
	s := bench.D695()
	opt, err := New(s, DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range s.Cores {
		for w := 1; w <= DefaultMaxWidth; w++ {
			want, err := wrapper.DesignWrapper(c, w)
			if err != nil {
				t.Fatal(err)
			}
			if got := opt.Design(c.ID, w); !reflect.DeepEqual(got, want) {
				t.Fatalf("core %d width %d: cached design differs", c.ID, w)
			}
		}
	}
	if opt.Design(1, 0) != nil || opt.Design(1, DefaultMaxWidth+1) != nil || opt.Design(9999, 8) != nil {
		t.Fatal("out-of-range Design lookups must return nil")
	}
	sch, err := opt.SweepBest(Params{TAMWidth: 32, Workers: 1}, detPercents, detDeltas)
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Verify(sch); err != nil {
		t.Fatalf("cached Verify: %v", err)
	}
	if err := Verify(s, sch); err != nil {
		t.Fatalf("uncached Verify: %v", err)
	}
}
