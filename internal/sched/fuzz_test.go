package sched

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench"
)

// sweepFuzzInput builds FuzzSweepBest's SOC and Params from its fuzz
// values: 2 to 24 cores, the generator seed, the synthRegimes knobs the
// low five bits of knobs switch on (a power budget, extra precedences,
// extra concurrencies, one BIST engine, hierarchy), a TAM width from 1 to
// 80 and, when budgets is set, LargerCorePreemptions(3).
func sweepFuzzInput(t testing.TB, cores uint8, seed int64, knobs, width uint8, budgets bool) (*Optimizer, Params) {
	cfg := bench.SynthConfig{Name: "fuzz", Cores: 2 + int(cores)%23, Seed: seed}
	if knobs&1 != 0 {
		cfg.PowerValues, cfg.PowerBudgetPct = true, 130
	}
	if knobs&2 != 0 {
		cfg.ExtraPrecedences = 6
	}
	if knobs&4 != 0 {
		cfg.ExtraConcurrencies = 6
	}
	if knobs&8 != 0 {
		cfg.BISTEngines = 1
	}
	if knobs&16 != 0 {
		cfg.HierarchyPct = 40
	}
	opt, err := New(bench.Synth(cfg), DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	params := Params{TAMWidth: 1 + int(width)%80}
	if budgets {
		if params.MaxPreemptions, err = opt.LargerCorePreemptions(3); err != nil {
			t.Fatal(err)
		}
	}
	return opt, params
}

// FuzzSweepBest: SweepBest on the default grid, at one worker and at four,
// returns the schedule of sweepBestRef, which runs and wires every grid
// point, field for field with Events and the params echo, or the same
// error. The fuzz values pick a bench.Synth SOC, a width and budgets (see
// sweepFuzzInput). The sweep skips runs on some seed inputs, which the
// set-up checks, so the skip meets the oracle on every run of the seeds.
func FuzzSweepBest(f *testing.F) {
	type seedInput struct {
		cores        uint8
		seed         int64
		knobs, width uint8
		budgets      bool
	}
	skipped := 0
	for _, in := range []seedInput{
		{22, 1, 0, 31, false},
		{22, 11, 1, 31, true},
		{22, 12, 6, 15, false},
		{22, 13, 8, 47, false},
		{22, 14, 16, 23, true},
		{6, 5, 31, 7, false},
		{0, 2, 0, 0, false},
	} {
		f.Add(in.cores, in.seed, in.knobs, in.width, in.budgets)
		opt, params := sweepFuzzInput(f, in.cores, in.seed, in.knobs, in.width, in.budgets)
		params.Workers = 1
		if _, n, err := opt.sweep(context.Background(), params, nil, nil); err == nil {
			skipped += n.skipped
		}
	}
	if skipped == 0 {
		f.Fatal("no seed input skips a run, so the fuzzer would not check the skip")
	}
	f.Fuzz(func(t *testing.T, cores uint8, seed int64, knobs, width uint8, budgets bool) {
		opt, params := sweepFuzzInput(t, cores, seed, knobs, width, budgets)
		want, wantErr := opt.sweepBestRef(params, nil, nil)
		for _, workers := range []int{1, 4} {
			params.Workers = workers
			got, err := opt.SweepBest(params, nil, nil)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("workers=%d: error %v, the full grid gives %v", workers, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d: sweep differs from the full grid: makespan %d, %d events; want %d, %d events",
					workers, got.Makespan, got.Events, want.Makespan, want.Events)
			}
		}
	})
}
