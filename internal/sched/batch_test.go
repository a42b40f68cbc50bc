package sched

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/bench"
)

// TestScheduleItemDispatch: the one dispatch runs a single classic Run
// only for a non-Best item on the default backend and the backend's best
// mode otherwise, and Key gives every spelling of one computation one
// address.
func TestScheduleItemDispatch(t *testing.T) {
	opt, err := New(bench.Demo(), DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := Params{TAMWidth: 16, Percent: 5, Delta: 1}
	named := p
	named.Backend = DefaultBackend
	port := p
	port.Backend = "portfolio"
	single := func(p Params) (*Schedule, error) { return opt.Run(p) }
	best := func(p Params) (*Schedule, error) { return opt.ScheduleBackend(ctx, p) }
	for _, tc := range []struct {
		name string
		it   BatchItem
		want func(Params) (*Schedule, error)
	}{
		{"classic single run", BatchItem{Params: p}, single},
		{"classic named single run", BatchItem{Params: named}, single},
		{"classic best", BatchItem{Params: p, Best: true}, best},
		{"portfolio", BatchItem{Params: port}, best},
		{"portfolio best", BatchItem{Params: port, Best: true}, best},
	} {
		want, err := tc.want(tc.it.Params)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got, err := opt.ScheduleItem(ctx, tc.it)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ScheduleItem differs from the mode's direct call", tc.name)
		}
	}

	// The key format is the service's cache address: it must not drift.
	for _, tc := range []struct {
		it   BatchItem
		want string
	}{
		{BatchItem{Params: p}, "best=false|" + p.CanonicalKey()},
		{BatchItem{Params: named}, "best=false|" + p.CanonicalKey()},
		{BatchItem{Params: p, Best: true}, "best=true|" + p.CanonicalKey()},
		{BatchItem{Params: port}, "best=true|" + port.CanonicalKey()},
	} {
		if got := tc.it.Key(); got != tc.want {
			t.Errorf("Key(%+v) = %q, want %q", tc.it, got, tc.want)
		}
	}
}

// TestScheduleBatchSharesAndIsolates: items with equal keys share one
// schedule, a failing item fails alone, results are the same for any
// worker count, and once ctx is done every item fails with ctx's error.
func TestScheduleBatchSharesAndIsolates(t *testing.T) {
	opt, err := New(bench.Demo(), DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{Params: Params{TAMWidth: 16}},
		{Params: Params{TAMWidth: 16, Backend: "no-such-backend"}},
		{Params: Params{TAMWidth: 16, Workers: 3}}, // Workers is not part of the key
		{Params: Params{TAMWidth: 12}, Best: true},
	}
	seq := opt.ScheduleBatch(context.Background(), items, 1)
	if seq[0].Err != nil || seq[3].Err != nil {
		t.Fatalf("valid items failed: %v, %v", seq[0].Err, seq[3].Err)
	}
	if !errors.Is(seq[1].Err, ErrUnknownBackend) {
		t.Fatalf("bad item err = %v, want ErrUnknownBackend", seq[1].Err)
	}
	if seq[2].Schedule != seq[0].Schedule {
		t.Fatal("items with equal keys did not share one schedule")
	}
	for i, r := range opt.ScheduleBatch(context.Background(), items, 4) {
		if !reflect.DeepEqual(r.Schedule, seq[i].Schedule) || (r.Err == nil) != (seq[i].Err == nil) {
			t.Errorf("item %d differs between 1 and 4 workers", i)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range opt.ScheduleBatch(ctx, items, 2) {
		if r.Schedule != nil || !errors.Is(r.Err, context.Canceled) {
			t.Errorf("item %d after cancel: (%v, %v), want (nil, context.Canceled)", i, r.Schedule, r.Err)
		}
	}
}
