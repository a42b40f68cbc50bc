package repro

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	s := BenchmarkSOC("d695")
	sch, err := ScheduleBest(s, Options{TAMWidth: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(s, sch); err != nil {
		t.Fatal(err)
	}
	lbv, err := LowerBound(s, 32)
	if err != nil {
		t.Fatal(err)
	}
	if sch.Makespan < lbv {
		t.Fatalf("makespan %d below lower bound %d", sch.Makespan, lbv)
	}
	res, err := Simulate(s, sch)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeasuredMakespan != sch.Makespan {
		t.Fatalf("simulator disagrees: %d vs %d", res.MeasuredMakespan, sch.Makespan)
	}
}

func TestScheduleWithExplicitParams(t *testing.T) {
	s := BenchmarkSOC("demo8")
	sch, err := Schedule(s, Options{TAMWidth: 16, Percent: 5, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(s, sch); err != nil {
		t.Fatal(err)
	}
	if sch.Params.Percent != 5 || sch.Params.Delta != 1 {
		t.Fatalf("params not honored: %+v", sch.Params)
	}
}

// TestScheduleHugeTAMWidth: wire assignment is bounded by the layout, not
// by the claimed TAM width, so a 2^40-wire request schedules and verifies
// like any other instead of allocating state for every claimed wire.
func TestScheduleHugeTAMWidth(t *testing.T) {
	s := BenchmarkSOC("d695")
	sch, err := Schedule(s, Options{TAMWidth: 1 << 40, Percent: 10, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(s, sch); err != nil {
		t.Fatal(err)
	}
	t.Logf("makespan %d", sch.Makespan)
}

func TestConstraintOptionsFlow(t *testing.T) {
	s := BenchmarkSOC("demo8")
	policy, err := PreemptionPolicy(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	budget := PowerBudget(s, 110)
	if budget <= 0 {
		t.Fatalf("budget %d", budget)
	}
	sch, err := ScheduleBest(s, Options{TAMWidth: 16, MaxPreemptions: policy, PowerMax: budget})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(s, sch); err != nil {
		t.Fatal(err)
	}
}

func TestWrapperAndPareto(t *testing.T) {
	s := BenchmarkSOC("d695")
	c := s.Core(5) // s38584
	d, err := DesignWrapper(c, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d.TestTime() <= 0 {
		t.Fatal("non-positive test time")
	}
	ps, err := ComputePareto(c, 32)
	if err != nil {
		t.Fatal(err)
	}
	if ps.MinTime() > d.TestTime() {
		t.Fatal("Pareto minimum above a feasible design")
	}
}

func TestSweepAndEffectiveWidth(t *testing.T) {
	s := BenchmarkSOC("demo8")
	sw, err := SweepWidths(s, 8, 20)
	if err != nil {
		t.Fatal(err)
	}
	eff, err := PickEffectiveWidth(sw, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if eff.TAMWidth < 8 || eff.TAMWidth > 20 {
		t.Fatalf("effective width %d outside sweep", eff.TAMWidth)
	}
}

// TestSweepWidthsDeterministic asserts the public parallel sweep returns
// exactly the sequential result (the tentpole determinism guarantee at the
// API surface; the internal packages test it at finer grain).
func TestSweepWidthsDeterministic(t *testing.T) {
	s := BenchmarkSOC("demo8")
	seq, err := SweepWidthsWorkers(s, 8, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepWidthsWorkers(s, 8, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("parallel SweepWidths differs from sequential")
	}
	def, err := SweepWidths(s, 8, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, def) {
		t.Fatal("default SweepWidths differs from sequential")
	}
}

func TestSOCFileRoundTripAPI(t *testing.T) {
	s := BenchmarkSOC("d695")
	var buf bytes.Buffer
	if err := WriteSOC(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSOC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "d695" || len(got.Cores) != 10 {
		t.Fatalf("round trip lost data: %s, %d cores", got.Name, len(got.Cores))
	}
	path := t.TempDir() + "/d695.soc"
	var buf2 bytes.Buffer
	if err := WriteSOC(&buf2, s); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(path, buf2.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSOC(path); err != nil {
		t.Fatal(err)
	}
}

func TestRenderers(t *testing.T) {
	s := BenchmarkSOC("demo8")
	sch, err := Schedule(s, Options{TAMWidth: 12, Percent: 5, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	var g bytes.Buffer
	if err := Gantt(&g, sch, 60); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.String(), "demo8") {
		t.Fatal("Gantt missing SOC name")
	}
	var svg bytes.Buffer
	if err := GanttSVG(&svg, sch); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(svg.String(), "<svg") {
		t.Fatal("not SVG")
	}
	for _, a := range sch.Assignments {
		if msg := FormatAssignment(a); !strings.Contains(msg, "width") {
			t.Fatalf("FormatAssignment: %q", msg)
		}
	}
}

func TestBenchmarkSOCPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown benchmark")
		}
	}()
	BenchmarkSOC("not-a-soc")
}

func writeFile(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}
