package repro

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/socfile"
	"repro/internal/wrapperrtl"
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
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		it   BatchItem
		want *TestSchedule
	}{
		{BatchItem{Params: opts}, want},
		{BatchItem{Params: Options{TAMWidth: 32, Workers: 1}, Best: true}, wantBest},
	} {
		got, err := p.ScheduleItem(ctx, tc.it)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("Planner.ScheduleItem(Best: %t) differs from the package helper", tc.it.Best)
		}
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
	gotSweep, err = p.SweepWidthsContext(ctx, 24, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSweep, wantSweep) {
		t.Fatal("Planner.SweepWidthsContext differs from package SweepWidths")
	}
	if p.SOC() != s {
		t.Fatal("Planner.SOC is not the SOC the Planner was built for")
	}
	if Fingerprint(s) != socfile.Fingerprint(s) {
		t.Fatal("Fingerprint differs from socfile.Fingerprint")
	}

	d := p.WrapperDesign(1, 8)
	wd, err := DesignWrapper(s.Core(1), 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, wd) {
		t.Fatal("Planner.WrapperDesign differs from DesignWrapper")
	}
	rtl, err := ElaborateWrapper(s.Core(1), wd)
	if err != nil {
		t.Fatal(err)
	}
	if wantRTL, err := wrapperrtl.Elaborate(s.Core(1), wd); err != nil || !reflect.DeepEqual(rtl, wantRTL) {
		t.Fatalf("ElaborateWrapper differs from wrapperrtl.Elaborate (err %v)", err)
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
