package rectpack

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/constraint"
	"repro/internal/sched"
)

// decoderFixture is one search's set-up and the genomes the decoder tests
// run through it.
type decoderFixture struct {
	name    string
	opt     *sched.Optimizer
	cores   []*core
	chk     *constraint.Checker
	params  sched.Params
	genomes []*genome
}

func (fx *decoderFixture) decoder() *decoder {
	return newDecoder(fx.cores, fx.chk, fx.params.TAMWidth)
}

// decoderFixtures returns the two budgeted fixtures: every preempt-rectpack
// seed of monster60 at W=64 (splits, suspensions, victims re-admitted at
// the instant they were suspended) and every anneal seed of d695 at W=24.
// Each seed is followed by a copy walked 30 seeded neighbor moves away, so
// forced split genes meet the seeds' preemption bits and floors.
func decoderFixtures(t *testing.T) []*decoderFixture {
	t.Helper()
	_, monster, mp4 := monster60(t)
	d695 := optimizer(t, "d695")
	mp2, err := d695.LargerCorePreemptions(2)
	if err != nil {
		t.Fatal(err)
	}
	out := []*decoderFixture{
		{name: "monster60-w64-preempt4", opt: monster, params: sched.Params{TAMWidth: 64, MaxPreemptions: mp4}},
		{name: "d695-w24-preempt2", opt: d695, params: sched.Params{TAMWidth: 24, MaxPreemptions: mp2}},
	}
	for i, fx := range out {
		fx.params = fx.params.Defaults()
		if fx.cores, _, fx.chk, err = buildCores(fx.opt, fx.params); err != nil {
			t.Fatal(err)
		}
		m := []mode{modePreempt, modeAnneal}[i]
		budgeted := budgetedCores(fx.cores)
		rng := rand.New(rand.NewSource(1))
		for _, g := range seeds(fx.cores, fx.params.TAMWidth, m) {
			walked := g.clone()
			for range 30 {
				neighbor(walked, fx.cores, fx.params.TAMWidth, budgeted, rng)
			}
			fx.genomes = append(fx.genomes, g, walked)
		}
	}
	return out
}

// diffDecoded describes how got differs from want, or returns "".
func diffDecoded(cores []*core, got, want decoded) string {
	if got.makespan != want.makespan || got.events != want.events || got.splits != want.splits {
		return fmt.Sprintf("makespan/events/splits %d/%d/%d, want %d/%d/%d",
			got.makespan, got.events, got.splits, want.makespan, want.events, want.splits)
	}
	for i := range want.sim {
		g, w := &got.sim[i], &want.sim[i]
		if g.width != w.width || !slices.Equal(g.segs, w.segs) || g.preempts != w.preempts || g.penalty != w.penalty {
			return fmt.Sprintf("core %d: width %d segs %v preempts %d penalty %d, want %d %v %d %d",
				cores[i].id, g.width, g.segs, g.preempts, g.penalty, w.width, w.segs, w.preempts, w.penalty)
		}
	}
	return ""
}

// TestDecoderReuseCarriesNoState: one decoder decodes every genome of a
// fixture forward, then in reverse, and each result equals a fresh
// decoder's for the same genome, so nothing of one decode leaks into the
// next.
func TestDecoderReuseCarriesNoState(t *testing.T) {
	for _, fx := range decoderFixtures(t) {
		dec := fx.decoder()
		n := len(fx.genomes)
		for k := range 2 * n {
			i := k
			if k >= n {
				i = 2*n - 1 - k
			}
			g := fx.genomes[i]
			got, gotErr := dec.decode(g, math.MaxInt64)
			want, wantErr := fx.decoder().decode(g, math.MaxInt64)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s genome %d (decode %d): error %v, fresh decoder %v", fx.name, i, k, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			if d := diffDecoded(fx.cores, got, want); d != "" {
				t.Fatalf("%s genome %d (decode %d): %s", fx.name, i, k, d)
			}
		}
	}
}

// TestDecodeDoesNotAllocate: once its segment slices have grown, a decoder
// decodes every feasible genome of both fixtures, seeds and walked copies,
// without touching the heap, with no limit and with a limit one below the
// makespan, which cuts every genome whose last test runs unsplit.
func TestDecodeDoesNotAllocate(t *testing.T) {
	cuts := 0
	for _, fx := range decoderFixtures(t) {
		dec := fx.decoder()
		for i, g := range fx.genomes {
			res, err := dec.decode(g, math.MaxInt64)
			if err != nil {
				continue // an infeasible genome's error allocates
			}
			for _, limit := range []int64{math.MaxInt64, res.makespan - 1} {
				if _, err := dec.decode(g, limit); errors.Is(err, errCut) {
					cuts++
				}
				if allocs := testing.AllocsPerRun(5, func() { _, _ = dec.decode(g, limit) }); allocs != 0 {
					t.Errorf("%s genome %d: a warmed decode at limit %d allocates %.0f times, want 0", fx.name, i, limit, allocs)
				}
			}
		}
	}
	if cuts == 0 {
		t.Error("no decode was cut")
	}
}

// TestAnnealStepDoesNotAllocate: one annealing step — a neighbor move,
// the skip test, a peek at the next draw, its decode under a limit, the
// draw a cut consumes, the copy of the decode's start trace, and the
// move's undo — allocates nothing, with budgets (split moves live) and
// without, with no limit and with a limit that cuts.
func TestAnnealStepDoesNotAllocate(t *testing.T) {
	opt := optimizer(t, "d695")
	mp, err := opt.LargerCorePreemptions(2)
	if err != nil {
		t.Fatal(err)
	}
	for _, params := range []sched.Params{{TAMWidth: 24, MaxPreemptions: mp}, {TAMWidth: 24}} {
		params = params.Defaults()
		cores, _, chk, err := buildCores(opt, params)
		if err != nil {
			t.Fatal(err)
		}
		dec := newDecoder(cores, chk, params.TAMWidth)
		budgeted := budgetedCores(cores)
		g := seeds(cores, params.TAMWidth, modeAnneal)[0].clone()
		start, err := dec.decode(g, math.MaxInt64)
		if err != nil {
			t.Fatal(err)
		}
		tr := make([]startTrace, len(cores))
		dec.trace(tr)
		src := &peekSource{Source: rand.NewSource(1)}
		rng := rand.New(src)
		for _, limit := range []int64{math.MaxInt64, start.makespan / 2} {
			cuts := 0
			allocs := testing.AllocsPerRun(500, func() {
				u := neighbor(g, cores, params.TAMWidth, budgeted, rng)
				_ = u.keepsDecode(g, cores, tr)
				_ = acceptLimit(start.makespan, 100, src.peek())
				if _, err := dec.decode(g, limit); errors.Is(err, errCut) {
					src.Int63()
					cuts++
				} else if err == nil {
					dec.trace(tr)
				}
				u.revert(g)
			})
			if allocs != 0 {
				t.Errorf("budgets=%t limit=%d: an anneal step allocates %.2f times, want 0", budgeted != nil, limit, allocs)
			}
			if (cuts > 0) != (limit < math.MaxInt64) {
				t.Errorf("budgets=%t limit=%d: %d steps cut", budgeted != nil, limit, cuts)
			}
		}
	}
}
