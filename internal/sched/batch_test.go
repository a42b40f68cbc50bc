package sched

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
)

// TestScheduleItemDispatch: the one dispatch runs a single classic Run
// only for a non-Best item on the default backend and the backend's best
// mode otherwise, and Key gives the two modes of a non-classic backend one
// address but an explicitly named default backend its own, since its
// schedule echoes the name.
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
		{BatchItem{Params: named}, "best=false|" + named.CanonicalKey()},
		{BatchItem{Params: p, Best: true}, "best=true|" + p.CanonicalKey()},
		{BatchItem{Params: port}, "best=true|" + port.CanonicalKey()},
		{BatchItem{Params: port, Best: true}, "best=true|" + port.CanonicalKey()},
	} {
		if got := tc.it.Key(); got != tc.want {
			t.Errorf("Key(%+v) = %q, want %q", tc.it, got, tc.want)
		}
	}
	if named.CanonicalKey() == p.CanonicalKey() {
		t.Error("backend \"classic\" and the unset backend share a key, but only one echoes its name")
	}
}

// TestKeyFoldsSingleRunSlack: a single run applies Defaults, so on d695
// Params{TAMWidth: 28} with InsertSlack unset and with DefaultInsertSlack
// return equal schedules and share one key, the unset spelling's. Best
// mode sweeps DefaultInsertSlacks for an unset slack, so there the two
// keep their own keys.
func TestKeyFoldsSingleRunSlack(t *testing.T) {
	opt, err := New(bench.D695(), DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	unset := Params{TAMWidth: 28}
	three := unset
	three.InsertSlack = DefaultInsertSlack
	a, err := opt.Run(unset)
	if err != nil {
		t.Fatal(err)
	}
	b, err := opt.Run(three)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("single runs with InsertSlack unset and 3 differ")
	}
	if got, want := (BatchItem{Params: three}).Key(), (BatchItem{Params: unset}).Key(); got != want || want != "best=false|"+unset.CanonicalKey() {
		t.Errorf("single-run keys %q and %q; want both %q", got, want, "best=false|"+unset.CanonicalKey())
	}
	if (BatchItem{Params: three, Best: true}).Key() == (BatchItem{Params: unset, Best: true}).Key() {
		t.Error("best mode gives InsertSlack unset and 3 one key, but only the unset slack sweeps")
	}
}

// TestCanonicalKeyBudgets: CanonicalKey spells a preemption-budget map's
// positive entries in core-ID order, so maps with the same entries give
// one key whatever order they were filled in, while a changed budget, or
// no map against a map with a positive budget, gives another key. Budgets
// ≤ 0 are none to every backend, so nil, empty and all-zero or negative
// maps give one key.
func TestCanonicalKeyBudgets(t *testing.T) {
	ids := []int{9, 2, 14, 5, 11, 1, 7, 3}
	budgets := func(order []int) map[int]int {
		m := make(map[int]int, len(order))
		for _, id := range order {
			m[id] = id % 3
		}
		return m
	}
	key := Params{TAMWidth: 32, MaxPreemptions: budgets(ids)}.CanonicalKey()
	if want := "|pre=[1:1,2:2,5:2,7:1,11:2,14:2]"; !strings.HasSuffix(key, want) {
		t.Fatalf("key %q does not end in %q", key, want)
	}
	reversed := slices.Clone(ids)
	slices.Reverse(reversed)
	for _, order := range [][]int{reversed, slices.Sorted(slices.Values(ids))} {
		if got := (Params{TAMWidth: 32, MaxPreemptions: budgets(order)}).CanonicalKey(); got != key {
			t.Errorf("budgets filled in order %v give key %q, want %q", order, got, key)
		}
	}
	changed := budgets(ids)
	changed[14] = 3
	if (Params{TAMWidth: 32, MaxPreemptions: changed}).CanonicalKey() == key {
		t.Error("changing core 14's budget kept the key")
	}
	none := Params{TAMWidth: 32}.CanonicalKey()
	if none == key {
		t.Error("no budget map and a budget map share a key")
	}
	for _, m := range []map[int]int{{}, {2: 0}, {2: -1}, {2: 0, 9: -3}} {
		if got := (Params{TAMWidth: 32, MaxPreemptions: m}).CanonicalKey(); got != none {
			t.Errorf("budgets %v give key %q, want the nil map's %q", m, got, none)
		}
	}
}

// TestBudgets: Budgets keeps only the positive budgets, answers nil when
// there are none, returns a map that already holds only positive budgets
// as it is, without allocating, and never changes the map it reads.
func TestBudgets(t *testing.T) {
	for _, m := range []map[int]int{nil, {}, {2: 0}, {2: -1, 9: 0}} {
		if got := (Params{MaxPreemptions: m}).Budgets(); got != nil {
			t.Errorf("Budgets of %v = %v, want nil", m, got)
		}
	}
	canonical := map[int]int{1: 1, 4: 2}
	p := Params{MaxPreemptions: canonical}
	if got := p.Budgets(); !reflect.DeepEqual(got, canonical) {
		t.Errorf("Budgets of %v = %v", canonical, got)
	}
	if allocs := testing.AllocsPerRun(10, func() { _ = p.Budgets() }); allocs != 0 {
		t.Errorf("Budgets of a positive-only map allocates %.0f times", allocs)
	}
	mixed := map[int]int{1: 1, 2: 0, 3: -2, 4: 2}
	if got := (Params{MaxPreemptions: mixed}).Budgets(); !reflect.DeepEqual(got, canonical) {
		t.Errorf("Budgets of %v = %v, want %v", mixed, got, canonical)
	}
	if len(mixed) != 4 {
		t.Errorf("Budgets changed the map it read: %v", mixed)
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

// TestScheduleBatchKeepsSpellingsApart: two spellings of one default in
// one batch — InsertSlack unset (best mode sweeps DefaultInsertSlacks) or
// DefaultInsertSlack, Backend unset or DefaultBackend, Seed unset or
// DefaultSeed (both echoed as sent) — each get their own schedule, equal
// to a lone ScheduleItem of that spelling.
func TestScheduleBatchKeepsSpellingsApart(t *testing.T) {
	opt, err := New(bench.Demo(), DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := Params{TAMWidth: 8}
	slack, named, seeded := p, p, p
	slack.InsertSlack = DefaultInsertSlack
	named.Backend = DefaultBackend
	seeded.Seed = DefaultSeed
	for _, pair := range [][]BatchItem{
		{{Params: p, Best: true}, {Params: slack, Best: true}},
		{{Params: p}, {Params: named}},
		{{Params: p}, {Params: seeded}},
	} {
		got := opt.ScheduleBatch(ctx, pair, 1)
		for i, it := range pair {
			want, err := opt.ScheduleItem(ctx, it)
			if err != nil || got[i].Err != nil {
				t.Fatalf("%+v: %v, %v", it, err, got[i].Err)
			}
			if !reflect.DeepEqual(got[i].Schedule, want) {
				t.Errorf("%+v beside %+v: batch schedule differs from its own", it, pair[1-i])
			}
		}
	}
}
