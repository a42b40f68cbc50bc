package schedio

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/rectpack"
	"repro/internal/sched"
	"repro/internal/soc"
)

// fuzzSOC is the SOC every fuzz input is loaded against. demo8 exercises
// hierarchy, precedence, concurrency, and BIST constraints in a small
// verification surface.
func fuzzSOC(tb testing.TB) *soc.SOC {
	tb.Helper()
	s, err := bench.ByName("demo8")
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// hugeWidthDoc is a 151-byte schedule of demo8 that claims two billion TAM
// wires and tests no core.
const hugeWidthDoc = `{"version":1,"soc":"demo8","tamWidth":2000000000,"params":{"percent":5,"delta":1,"insertSlack":3,"maxWidth":64},"makespan":0,"dataVolume":0,"cores":[]}`

// mutatedDocs saves demo8's W=16 schedule as valid, and twice more after
// mutating it in memory: conflict moves core 4's first piece onto three
// wires core 6 holds at the same time, and unsorted reverses the wire list
// of core 6's first piece.
func mutatedDocs(tb testing.TB) (valid, conflict, unsorted []byte) {
	tb.Helper()
	s := fuzzSOC(tb)
	save := func(mutate func(*sched.Schedule)) []byte {
		sch, err := sched.Run(s, sched.Params{TAMWidth: 16, Percent: 5, Delta: 1})
		if err != nil {
			tb.Fatal(err)
		}
		mutate(sch)
		var buf bytes.Buffer
		if err := Save(&buf, sch); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	valid = save(func(*sched.Schedule) {})
	conflict = save(func(sch *sched.Schedule) {
		a, b := sch.Assignments[4], sch.Assignments[6]
		a.Pieces[0].Wires = slices.Clone(b.Pieces[0].Wires[:a.Width])
	})
	unsorted = save(func(sch *sched.Schedule) { slices.Reverse(sch.Assignments[6].Pieces[0].Wires) })
	return valid, conflict, unsorted
}

// regimeSchedules returns demo8's two schedules that are valid only under
// the regime they ran in, with their optimizer: preempt-rectpack at W=9
// with one preemption for the larger cores, which splits one core, and
// the classic best schedule at W=16 with hierarchy ignored (the
// demo8-w16-ignorehier scenario).
func regimeSchedules(tb testing.TB) (opt *sched.Optimizer, split, flat *sched.Schedule) {
	tb.Helper()
	opt, err := sched.New(fuzzSOC(tb), sched.DefaultMaxWidth)
	if err != nil {
		tb.Fatal(err)
	}
	mp, err := opt.LargerCorePreemptions(1)
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	split, err = opt.ScheduleBackend(ctx, sched.Params{TAMWidth: 9, MaxPreemptions: mp, Workers: 1, Backend: rectpack.PreemptName})
	if err != nil {
		tb.Fatal(err)
	}
	flat, err = opt.ScheduleBackend(ctx, sched.Params{TAMWidth: 16, IgnoreHierarchy: true, Workers: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return opt, split, flat
}

// saveBytes returns sch's schedio document.
func saveBytes(tb testing.TB, sch *sched.Schedule) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, sch); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// seedSchedules serializes a few real schedules (plain, budgeted,
// power-constrained, rectpack-style backend echo, and the two of
// regimeSchedules) as fuzz seeds, so the fuzzer starts from the
// valid-document neighborhood.
func seedSchedules(f *testing.F) {
	s := fuzzSOC(f)
	opt, split, flat := regimeSchedules(f)
	mp, err := opt.LargerCorePreemptions(1)
	if err != nil {
		f.Fatal(err)
	}
	for _, params := range []sched.Params{
		{TAMWidth: 16, Percent: 5, Delta: 1},
		{TAMWidth: 12, Percent: 3, Delta: 0, MaxPreemptions: mp},
		{TAMWidth: 8, Percent: 5, Delta: 1, PowerMax: sched.DefaultPowerBudget(s, 110)},
		{TAMWidth: 16, Percent: 5, Delta: 1, Backend: "rectpack"},
	} {
		sch, err := opt.Run(params)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(saveBytes(f, sch))
	}
	f.Add(saveBytes(f, split))
	f.Add(saveBytes(f, flat))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`{"version":1,"soc":"demo8","tamWidth":0}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(``))
	// The paths Load hands to Verify: a TAM width no allocation may
	// follow, a wire conflict, and an unsorted wire list.
	_, conflict, unsorted := mutatedDocs(f)
	f.Add([]byte(hugeWidthDoc))
	f.Add(conflict)
	f.Add(unsorted)
}

// FuzzLoadSchedule asserts that Load never panics on arbitrary bytes, and
// that any input it accepts round-trips byte-identically: Save(Load(x))
// re-loaded and re-saved yields the same bytes (the canonical form is a
// fixed point).
func FuzzLoadSchedule(f *testing.F) {
	seedSchedules(f)
	s := fuzzSOC(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		sch, err := Load(bytes.NewReader(data), s)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		var first bytes.Buffer
		if err := Save(&first, sch); err != nil {
			t.Fatalf("Save after successful Load: %v", err)
		}
		sch2, err := Load(bytes.NewReader(first.Bytes()), s)
		if err != nil {
			t.Fatalf("re-Load of saved schedule: %v", err)
		}
		var second bytes.Buffer
		if err := Save(&second, sch2); err != nil {
			t.Fatalf("re-Save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save→Load→Save not a fixed point:\nfirst:  %s\nsecond: %s", first.Bytes(), second.Bytes())
		}
	})
}

// TestBackendFieldRoundTrip pins the schedio backend annotation: schedules
// produced by a non-classic backend record it, loaders get it back, and
// the default classic backend stays invisible on the wire (goldens from
// before the backend registry are unchanged).
func TestBackendFieldRoundTrip(t *testing.T) {
	s := fuzzSOC(t)
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := opt.Run(sched.Params{TAMWidth: 16, Percent: 5, Delta: 1, Backend: "rectpack"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"backend": "rectpack"`)) {
		t.Fatalf("saved schedule missing backend annotation:\n%s", buf.Bytes())
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), s)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Params.Backend != "rectpack" {
		t.Fatalf("loaded backend %q, want %q", loaded.Params.Backend, "rectpack")
	}

	sch.Params.Backend = ""
	buf.Reset()
	if err := Save(&buf, sch); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"backend"`)) {
		t.Fatalf("classic schedule leaked a backend field:\n%s", buf.Bytes())
	}
}
