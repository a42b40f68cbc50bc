package repro

import (
	"reflect"
	"testing"
)

// TestPlannerMatchesPackageHelpers asserts the cached Planner session
// returns exactly what the cache-rebuilding package helpers return.
func TestPlannerMatchesPackageHelpers(t *testing.T) {
	s := BenchmarkSOC("d695")
	p, err := NewPlanner(s)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{TAMWidth: 32, Percent: 10, Delta: 1, Workers: 1}

	got, err := p.Schedule(opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Schedule(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Planner.Schedule differs from package Schedule")
	}
	if err := p.Verify(got); err != nil {
		t.Fatalf("Planner.Verify: %v", err)
	}

	gotBest, err := p.ScheduleBest(Options{TAMWidth: 32, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	wantBest, err := ScheduleBest(s, Options{TAMWidth: 32, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotBest, wantBest) {
		t.Fatal("Planner.ScheduleBest differs from package ScheduleBest")
	}

	gotSweep, err := p.SweepWidths(24, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantSweep, err := SweepWidthsWorkers(s, 24, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSweep, wantSweep) {
		t.Fatal("Planner.SweepWidths differs from package SweepWidths")
	}

	d := p.WrapperDesign(1, 8)
	wd, err := DesignWrapper(s.Core(1), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, wd) {
		t.Fatal("Planner.WrapperDesign differs from DesignWrapper")
	}
	// The design belongs to the caller: changing it changes no later call.
	d.Chains[0].ScanChains, d.Chains[0].ScanBits = nil, -1
	if !reflect.DeepEqual(p.WrapperDesign(1, 8), wd) {
		t.Fatal("mutating a returned WrapperDesign changed the next call's result")
	}
	if p.WrapperDesign(1, 0) != nil || p.WrapperDesign(1, DefaultMaxWidth+1) != nil {
		t.Fatal("out-of-range WrapperDesign must return nil")
	}
	if ps := p.Pareto(1); ps == nil || ps.Time(8) != wd.TestTime() {
		t.Fatal("Planner.Pareto inconsistent with wrapper design")
	}
}
