package rectpack

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/lb"
	"repro/internal/pareto"
	"repro/internal/sched"
)

// refDecode is the decoder's event loop before it kept its order and
// running lists: at every event it walks all of g.perm, finished cores
// included, and every simCore twice to find and retire the next event. It
// has no limit. TestDecoderMatchesReference checks decode against it. It
// uses only d's cores, simulation states, constraint.State and victim
// list, never d.order or d.running.
func refDecode(d *decoder, g *genome) (decoded, error) {
	cores, sim, cs := d.cores, d.sim, d.cs
	for i := range sim {
		sim[i] = simCore{segs: sim[i].segs[:0]}
	}
	cs.Reset()
	var now int64
	avail := d.tamWidth
	left := len(cores)
	events := 0
	splits := 0
	for left > 0 {
		events++
		for pos, ci := range g.perm {
			c := cores[ci]
			s := &sim[ci]
			switch s.state {
			case simSuspended:
				if now <= s.yieldedAt {
					continue
				}
				if avail < s.width || !cs.OK(c.id) {
					if !g.preempt {
						continue
					}
					free, ok := refPreemptFor(d, g.perm, pos, s.width, avail, now)
					if !ok {
						continue
					}
					avail = free
				}
				s.resume(c, now)
				cs.Start(c.id)
				avail -= s.width
			case simUnstarted:
				floor := g.floor[ci]
				w, ok := c.set.SnapDown(min(g.cap[ci], avail))
				if !ok || (floor > 0 && w < floor) || !cs.OK(c.id) {
					if !g.preempt {
						continue
					}
					if w, ok = c.set.SnapDown(g.cap[ci]); !ok || (floor > 0 && w < floor) {
						continue
					}
					free, ok := refPreemptFor(d, g.perm, pos, w, avail, now)
					if !ok {
						continue
					}
					avail = free
					splits++
				}
				if s.start(c, w, now, g.split[ci]) {
					splits++
				}
				cs.Start(c.id)
				avail -= w
			}
		}
		var next int64 = -1
		for i := range sim {
			s := &sim[i]
			if s.state != simRunning {
				continue
			}
			end := s.segStart + s.remaining
			if s.yieldAt >= 0 && s.yieldAt < end {
				end = s.yieldAt
			}
			if next == -1 || end < next {
				next = end
			}
		}
		if next == -1 {
			return decoded{}, fmt.Errorf("rectpack: no core can run at t=%d with %d cores left", now, left)
		}
		for i := range sim {
			s := &sim[i]
			if s.state != simRunning {
				continue
			}
			end := s.segStart + s.remaining
			if s.yieldAt >= 0 && s.yieldAt < end && s.yieldAt == next {
				s.suspend(next)
				s.yieldedAt = next
				cs.Stop(cores[i].id)
				avail += s.width
			} else if end == next {
				s.closeSeg(next)
				s.state = simDone
				cs.Complete(cores[i].id)
				avail += s.width
				left--
			}
		}
		now = next
	}
	return decoded{sim: sim, makespan: now, events: events, splits: splits}, nil
}

// refPreemptFor is preemptFor as refDecode calls it: it suspends the
// victims and keeps no running list.
func refPreemptFor(d *decoder, perm []int, pos, want, avail int, now int64) (int, bool) {
	cores, sim, cs := d.cores, d.sim, d.cs
	victims := d.victims[:0]
	freed := 0
	for vpos := len(perm) - 1; vpos > pos && avail+freed < want; vpos-- {
		vi := perm[vpos]
		if v := &sim[vi]; v.state == simRunning && v.preempts < cores[vi].budget && v.segStart < now {
			victims = append(victims, vi)
			freed += v.width
		}
	}
	d.victims = victims
	if avail+freed < want {
		return avail, false
	}
	for _, vi := range victims {
		cs.Stop(cores[vi].id)
	}
	if !cs.OK(cores[perm[pos]].id) {
		for _, vi := range victims {
			cs.Start(cores[vi].id)
		}
		return avail, false
	}
	for _, vi := range victims {
		sim[vi].suspend(now)
	}
	return avail + freed, true
}

// newFixture builds the set-up of one (optimizer, params) input, with no
// genomes.
func newFixture(t testing.TB, name string, opt *sched.Optimizer, params sched.Params) *decoderFixture {
	t.Helper()
	fx := &decoderFixture{name: name, opt: opt, params: params.Defaults()}
	var err error
	if fx.cores, _, fx.chk, err = buildCores(opt, fx.params); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return fx
}

// shapeFixture builds the decoder fixture of one (optimizer, params)
// input: the seeds of all three modes, each followed by copies walked 10
// and 30 seeded neighbor moves away with anneal's width bound and budgeted
// cores, so that split genes meet preemption bits and victims. Every mode
// begins with the pack seeds, which are taken once.
func shapeFixture(t *testing.T, name string, opt *sched.Optimizer, params sched.Params, seed int64) *decoderFixture {
	t.Helper()
	fx := newFixture(t, name, opt, params)
	wmax := min(fx.params.MaxWidth, fx.params.TAMWidth)
	budgeted := budgetedCores(fx.cores)
	rng := rand.New(rand.NewSource(seed))
	pack := len(seeds(fx.cores, fx.params.TAMWidth, modePack))
	for _, m := range []mode{modePack, modePreempt, modeAnneal} {
		gs := seeds(fx.cores, fx.params.TAMWidth, m)
		if m != modePack {
			gs = gs[pack:]
		}
		for _, g := range gs {
			fx.genomes = append(fx.genomes, g)
			walked := g.clone()
			for _, moves := range []int{10, 20} {
				for range moves {
					neighbor(walked, fx.cores, wmax, budgeted, rng)
				}
				fx.genomes = append(fx.genomes, walked.clone())
			}
		}
	}
	return fx
}

// sameOutcome describes how decode's (got, gotErr) differs from the
// reference's (want, wantErr), or returns "".
func sameOutcome(cores []*core, got decoded, gotErr error, want decoded, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		return fmt.Sprintf("error %v, want %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return ""
	}
	return diffDecoded(cores, got, want)
}

// checkMatchesReference decodes every genome of fx with no limit and with
// the reference loop and requires the same outcome. It returns the number
// of genomes decoded.
func checkMatchesReference(t *testing.T, fx *decoderFixture) int {
	t.Helper()
	dec, ref := fx.decoder(), fx.decoder()
	for i, g := range fx.genomes {
		got, gotErr := dec.decode(g, math.MaxInt64)
		want, wantErr := refDecode(ref, g)
		if d := sameOutcome(fx.cores, got, gotErr, want, wantErr); d != "" {
			t.Fatalf("%s genome %d: %s", fx.name, i, d)
		}
	}
	return len(fx.genomes)
}

// checkCut compares decode(g, L) with decode(g, math.MaxInt64) for every
// genome of fx at L = makespan - 1, makespan and makespan + 1 and at two
// seeded limits below twice the makespan (below the serial time for a
// genome that fails). A limited decode that is not cut must equal the unlimited
// one; a cut may come back only when the unlimited decode fails or ends
// after L; and a genome with no split gene and no preemption bit always
// decodes and is cut exactly when its makespan is above L. It returns the
// number of genomes whose unlimited decode failed, the number of limited
// decodes and the number of those that were cut.
func checkCut(t *testing.T, fx *decoderFixture, rng *rand.Rand) (failed, limited, cuts int) {
	t.Helper()
	full, lim := fx.decoder(), fx.decoder()
	var serial int64
	for _, c := range fx.cores {
		serial += c.set.Time(1)
	}
	for i, g := range fx.genomes {
		want, wantErr := full.decode(g, math.MaxInt64)
		plain := !g.preempt && !slices.ContainsFunc(g.split, func(s int64) bool { return s != 0 })
		if wantErr != nil {
			if plain {
				t.Fatalf("%s genome %d: no split gene and no preemption bit, yet the decode failed: %v", fx.name, i, wantErr)
			}
			failed++
		}
		limits := []int64{rng.Int63n(serial + 1), rng.Int63n(serial + 1)}
		if wantErr == nil {
			limits = []int64{rng.Int63n(2 * want.makespan), rng.Int63n(2 * want.makespan),
				want.makespan - 1, want.makespan, want.makespan + 1}
		}
		for _, limit := range limits {
			limited++
			got, gotErr := lim.decode(g, limit)
			cut := errors.Is(gotErr, errCut)
			if cut {
				cuts++
				if wantErr == nil && want.makespan <= limit {
					t.Fatalf("%s genome %d: cut at limit %d, but the full decode ends at %d", fx.name, i, limit, want.makespan)
				}
			} else if d := sameOutcome(fx.cores, got, gotErr, want, wantErr); d != "" {
				t.Fatalf("%s genome %d at limit %d: %s", fx.name, i, limit, d)
			}
			if plain && cut != (want.makespan > limit) {
				t.Fatalf("%s genome %d: cut %t at limit %d, full makespan %d", fx.name, i, cut, limit, want.makespan)
			}
		}
	}
	return failed, limited, cuts
}

// keepKinds names the moves keepsDecode answers, in the order
// checkKeepsDecode counts them.
var keepKinds = [...]string{
	"swaps of a position with itself",
	"relocations of a position to itself",
	"gene moves that redraw the same values",
	"cap moves to a different cap with the same SnapDown",
	"cap or floor moves the trace answers",
}

// skipChecker checks anneal's skip test, undo.keepsDecode itself, against
// full decodes of one shape's genomes.
type skipChecker struct {
	cores         []*core
	before, after *decoder
	tr            []startTrace
}

func newSkipChecker(fx *decoderFixture) *skipChecker {
	return &skipChecker{cores: fx.cores, before: fx.decoder(), after: fx.decoder(), tr: make([]startTrace, len(fx.cores))}
}

// step decodes g with no limit and reads the decode's start trace, applies
// move to g, and asks keepsDecode about the move. When it answers the
// move, the moved genome's unlimited decode must have the outcome g had
// before the move: the same error, or the same makespan, events, splits
// and per-core width, segments, preemptions and penalty. step returns the
// move and whether keepsDecode answered it.
func (c *skipChecker) step(t testing.TB, name string, g *genome, move func(*genome) undo) (undo, bool) {
	t.Helper()
	want, wantErr := c.before.decode(g, math.MaxInt64)
	c.before.trace(c.tr)
	u := move(g)
	if !u.keepsDecode(g, c.cores, c.tr) {
		return u, false
	}
	got, gotErr := c.after.decode(g, math.MaxInt64)
	if d := sameOutcome(c.cores, got, gotErr, want, wantErr); d != "" {
		t.Fatalf("%s: keepsDecode answers move %+v, yet its decode differs: %s", name, u, d)
	}
	return u, true
}

// checkKeepsDecode walks moves seeded neighbor moves, with anneal's width
// bound and budgeted cores, from every anneal seed of fx's shape, and
// checks each move with skipChecker.step. It returns the number of moves
// keepsDecode answered of each of keepKinds.
func checkKeepsDecode(t *testing.T, fx *decoderFixture, rng *rand.Rand, moves int) (kinds [len(keepKinds)]int) {
	t.Helper()
	sc := newSkipChecker(fx)
	wmax := min(fx.params.MaxWidth, fx.params.TAMWidth)
	budgeted := budgetedCores(fx.cores)
	walk := func(g *genome) undo { return neighbor(g, fx.cores, wmax, budgeted, rng) }
	for _, seed := range seeds(fx.cores, fx.params.TAMWidth, modeAnneal) {
		g := seed.clone()
		for range moves {
			u, answered := sc.step(t, fx.name, g, walk)
			if !answered {
				continue
			}
			set := fx.cores[u.ci].set
			w0, _ := set.SnapDown(u.cap)
			w1, _ := set.SnapDown(g.cap[u.ci])
			switch {
			case u.kind == undoSwap:
				kinds[0]++
			case u.kind == undoRelocate:
				kinds[1]++
			case g.floor[u.ci] != u.floor || w0 != w1:
				kinds[4]++
			case g.cap[u.ci] == u.cap:
				kinds[2]++
			default:
				kinds[3]++
			}
		}
	}
	return kinds
}

// refAnneal is anneal without its skip test and its stop at the floor: it
// decodes every move, under the same makespan limit, and spends its whole
// budget. checkAnnealMatchesReference checks anneal's chain against it.
func refAnneal(dec *decoder, params sched.Params, start *genome, startCost int64) []*genome {
	seed := params.Seed
	if seed == 0 {
		seed = sched.DefaultSeed
	}
	src := &peekSource{Source: rand.NewSource(seed)}
	rng := rand.New(src)
	wmax := min(params.MaxWidth, params.TAMWidth)
	budgeted := budgetedCores(dec.cores)
	chain := []*genome{start}
	cur, curCost := start.clone(), startCost
	bestCost := curCost
	iters := iterBudget(len(dec.cores))
	temp := max(float64(bestCost)/100, 1)
	cooling := math.Pow(1e-3, 1/float64(iters))
	stall := 0
	for range iters {
		u := neighbor(cur, dec.cores, wmax, budgeted, rng)
		limit := int64(math.MaxInt64)
		if !cur.preempt && !slices.ContainsFunc(cur.split, func(s int64) bool { return s != 0 }) {
			limit = acceptLimit(curCost, temp, src.peek())
		}
		res, err := dec.decode(cur, limit)
		if errors.Is(err, errCut) {
			src.Int63()
		}
		cost := res.makespan
		if err != nil {
			cost = math.MaxInt64
		}
		delta := float64(cost - curCost)
		if delta <= 0 || (err == nil && rng.Float64() < math.Exp(-delta/temp)) {
			curCost = cost
			if cost < bestCost {
				bestCost = cost
				chain = append(chain, cur.clone())
				stall = 0
			} else {
				stall++
			}
		} else {
			u.revert(cur)
			stall++
		}
		if stall > iters/5 {
			cur, curCost = chain[len(chain)-1].clone(), bestCost
			stall = 0
		}
		temp *= cooling
	}
	return chain
}

// checkAnnealMatchesReference anneals fx's shape from its best anneal
// seed, as search does, with the stop at LB(W), and requires refAnneal's
// improvement chain, genome for genome. It returns the chain's length.
func checkAnnealMatchesReference(t *testing.T, fx *decoderFixture) int {
	t.Helper()
	dec := fx.decoder()
	var start *genome
	var startCost int64
	for _, g := range seeds(fx.cores, fx.params.TAMWidth, modeAnneal) {
		if res, err := dec.decode(g, math.MaxInt64); err == nil && (start == nil || res.makespan < startCost) {
			start, startCost = g, res.makespan
		}
	}
	if start == nil {
		t.Fatalf("%s: every anneal seed failed", fx.name)
	}
	sets := make([]*pareto.Set, len(fx.cores))
	for i, c := range fx.cores {
		sets[i] = c.set
	}
	got, err := anneal(context.Background(), nil, dec, fx.params, start, startCost, lb.FromCapped(sets, fx.params.TAMWidth).Value())
	if err != nil {
		t.Fatalf("%s: %v", fx.name, err)
	}
	want := refAnneal(fx.decoder(), fx.params, start, startCost)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: anneal's chain of %d genomes differs from the chain of %d that decoding every move gives", fx.name, len(got), len(want))
	}
	return len(got)
}
