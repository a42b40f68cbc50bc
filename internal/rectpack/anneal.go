package rectpack

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"

	"repro/internal/obs"
	"repro/internal/sched"
)

// anneal runs seeded simulated annealing from the start genome: one random
// move per iteration, Metropolis acceptance on the decoded makespan,
// geometric cooling, and a restart from the best known solution when
// progress stalls. It returns the improvement chain, oldest first, which
// begins with start itself. The moves are drawn from params.Seed (zero
// means sched.DefaultSeed).
//
// A move whose genome has no split gene is decoded under a makespan
// limit: acceptLimit of r, the Metropolis test's next uniform draw, which
// peekSource reads ahead without consuming it. Such a genome always
// decodes: anneal genomes carry no preemption bit and keep every floor at
// or below SnapDown(cap), so with nothing running all wires are free, and
// constraint.New has refused precedence cycles and single tests above the
// power budget, so some never-started core whose predecessors are
// complete can start. Its full decode would therefore reach the test and
// draw r. A cut decode's makespan lies above the limit, which the test
// rejects for that r, so anneal consumes the draw and rejects the move,
// and every draw, decision and schedule byte is the full decode's. The
// anneal/search span's cut attribute counts the cut decodes.
//
// A move that changes no gene decode reads (keepsDecode) is not decoded
// at all: its cost is curCost, and the Metropolis test accepts the zero
// delta without a draw, as it would after the full decode. curCost is
// always the unlimited makespan of cur: the seed's cost, the cost of an
// accepted decode that was not cut, or the chain tip's cost after a
// restart, and a decode of cur is never cut, since its limit is at least
// curCost + 1. The span's same attribute counts these moves.
func anneal(ctx context.Context, sp *obs.Span, dec *decoder, params sched.Params, start *genome, startCost int64) ([]*genome, error) {
	seed := params.Seed
	if seed == 0 {
		seed = sched.DefaultSeed
	}
	src := &peekSource{Source: rand.NewSource(seed)}
	rng := rand.New(src)
	wmax := min(params.MaxWidth, params.TAMWidth)
	cores := dec.cores
	budgeted := budgetedCores(cores)
	chain := []*genome{start}
	cur, curCost := start.clone(), startCost
	bestCost := curCost
	iters := iterBudget(len(cores))
	temp := max(float64(bestCost)/100, 1)
	cooling := math.Pow(1e-3, 1/float64(iters))
	stall := 0
	cuts, same := 0, 0
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		u := neighbor(cur, cores, wmax, budgeted, rng)
		var err error
		cost := curCost // a move keepsDecode accepts decodes to cur's makespan
		if u.keepsDecode(cur, cores) {
			same++
		} else {
			limit := int64(math.MaxInt64)
			if !cur.preempt && !slices.ContainsFunc(cur.split, func(s int64) bool { return s != 0 }) {
				limit = acceptLimit(curCost, temp, src.peek())
			}
			var res decoded
			res, err = dec.decode(cur, limit)
			if errors.Is(err, errCut) {
				src.Int63() // the draw that rejects the full decode's makespan
				cuts++
			}
			cost = res.makespan
			if err != nil {
				cost = math.MaxInt64
			}
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
	sp.SetAttr("iters", iters)
	sp.SetAttr("improved", len(chain)-1)
	sp.SetAttr("cut", cuts)
	sp.SetAttr("same", same)
	return chain, nil
}

// acceptLimit returns a makespan limit above which the Metropolis test
// rejects a move from cost curCost at temperature temp, given v, the Int63
// from which rand.Float64 draws its r = v/2^63. The test accepts a cost c
// only when r < exp(-(c-curCost)/temp), that is when c - curCost <
// d = -temp·ln r, so the limit is curCost + ⌈d + 1e-9·(d+temp)⌉ + 1: the
// margin keeps every cost above it rejected whatever the last bits of
// math.Exp. There is no limit (math.MaxInt64) when r is 0, when r rounds
// to 1 so that Float64 draws again, or when the sum overflows.
func acceptLimit(curCost int64, temp float64, v int64) int64 {
	r := float64(v) / (1 << 63)
	if r == 1 {
		return math.MaxInt64
	}
	d := -temp * math.Log(r) // +Inf when r is 0
	x := math.Ceil(d + 1e-9*(d+temp))
	if !(x < 1<<63) {
		return math.MaxInt64
	}
	k := int64(x)
	if curCost > math.MaxInt64-1-k {
		return math.MaxInt64
	}
	return curCost + k + 1
}

// peekSource is a rand.Source that can read its next Int63 ahead: peek
// buffers the value and the next Int63 returns it, so a rand.Rand over a
// peekSource draws the same Intn, Int63n and Float64 values as one over
// the wrapped source, peeks or not. Its Seed is the wrapped source's,
// which keeps a peeked value; anneal never reseeds.
type peekSource struct {
	rand.Source
	next     int64
	buffered bool
}

// Int63 returns the peeked value if there is one, else the wrapped
// source's next.
func (s *peekSource) Int63() int64 {
	if s.buffered {
		s.buffered = false
		return s.next
	}
	return s.Source.Int63()
}

// peek returns the value the next Int63 call will return.
func (s *peekSource) peek() int64 {
	if !s.buffered {
		s.next, s.buffered = s.Source.Int63(), true
	}
	return s.next
}

// budgetedCores returns the positions of the cores with a preemption
// budget, the only cores a split move may pick.
func budgetedCores(cores []*core) []int {
	var out []int
	for i, c := range cores {
		if c.budget > 0 {
			out = append(out, i)
		}
	}
	return out
}

// undo reverts one neighbor move: a swap or relocation between priority
// positions i and j, or a change to core ci's cap, floor and split genes.
type undo struct {
	kind       undoKind
	i, j, ci   int
	cap, floor int
	split      int64
}

type undoKind uint8

const (
	undoGenes undoKind = iota
	undoSwap
	undoRelocate
)

// revert restores g to its state before the move u records.
func (u undo) revert(g *genome) {
	switch u.kind {
	case undoSwap:
		g.perm[u.i], g.perm[u.j] = g.perm[u.j], g.perm[u.i]
	case undoRelocate:
		relocate(g.perm, u.j, u.i)
	default:
		g.cap[u.ci], g.floor[u.ci], g.split[u.ci] = u.cap, u.floor, u.split
	}
}

// keepsDecode reports whether the move u made on g left every gene
// decode reads as it was: a swap or relocation of a position with
// itself, or a gene move that kept the core's floor, its split and
// SnapDown of its cap. decode reads a cap only through SnapDown(min(cap,
// free)) and, for a blocked core, SnapDown(cap); SnapDown does not
// decrease, so the first is min(SnapDown(cap), SnapDown(free)).
func (u undo) keepsDecode(g *genome, cores []*core) bool {
	if u.kind != undoGenes {
		return u.i == u.j
	}
	ci, set := u.ci, cores[u.ci].set
	w0, ok0 := set.SnapDown(u.cap)
	w1, ok1 := set.SnapDown(g.cap[ci])
	return g.floor[ci] == u.floor && g.split[ci] == u.split && w0 == w1 && ok0 == ok1
}

// relocate moves perm[from] to position to, shifting the entries between
// them by one and keeping their order.
func relocate(perm []int, from, to int) {
	v := perm[from]
	if from < to {
		copy(perm[from:to], perm[from+1:to+1])
	} else {
		copy(perm[to+1:from+1], perm[to:from])
	}
	perm[to] = v
}

// neighbor mutates g in place with one random move and returns the undo
// value that reverts it. Moves: swap two priority positions, relocate one
// core in the priority order, re-aim a core at a different Pareto point,
// move its quality floor, or (for a core in budgeted, the positions
// budgetedCores returns) set, move, or clear its forced split point.
func neighbor(g *genome, cores []*core, wmax int, budgeted []int, rng *rand.Rand) undo {
	n := len(g.perm)
	kind := rng.Intn(100)
	if len(budgeted) == 0 && kind >= 90 {
		kind = 60 // fold split moves into cap moves
	}
	switch {
	case kind < 30: // swap two priority positions
		i, j := rng.Intn(n), rng.Intn(n)
		g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
		return undo{kind: undoSwap, i: i, j: j}
	case kind < 50: // relocate one core in the priority order
		from, to := rng.Intn(n), rng.Intn(n)
		relocate(g.perm, from, to)
		return undo{kind: undoRelocate, i: from, j: to}
	}
	var ci int
	if kind < 90 {
		ci = rng.Intn(n)
	} else {
		ci = budgeted[rng.Intn(len(budgeted))]
	}
	u := undo{kind: undoGenes, ci: ci, cap: g.cap[ci], floor: g.floor[ci], split: g.split[ci]}
	set := cores[ci].set
	switch {
	case kind < 75: // re-aim a core at a different Pareto point
		if rng.Intn(8) == 0 {
			g.cap[ci] = wmax
		} else {
			g.cap[ci] = set.Points[rng.Intn(len(set.Points))].Width
		}
		if w, ok := set.SnapDown(g.cap[ci]); ok && g.floor[ci] > w {
			g.floor[ci] = 0 // keep the genome feasible: floor above cap never starts
		}
	case kind < 90: // move a core's quality floor
		if rng.Intn(2) == 0 {
			g.floor[ci] = 0
		} else if w, ok := set.SnapDown(g.cap[ci]); ok {
			g.floor[ci] = min(set.Points[rng.Intn(len(set.Points))].Width, w)
		}
	default: // set, move, or clear a forced split point
		if u.split != 0 && rng.Intn(3) == 0 {
			g.split[ci] = 0
		} else {
			w, ok := set.SnapDown(g.cap[ci])
			if !ok {
				w = set.MaxParetoWidth()
			}
			dur := set.Time(w)
			if dur > 1 {
				// Split somewhere in the middle three quarters of the run.
				lo := max(dur/8, 1)
				hi := dur - dur/8
				if hi <= lo {
					hi = lo + 1
				}
				g.split[ci] = lo + rng.Int63n(hi-lo)
			}
		}
	}
	return u
}

// iterBudget scales the annealing move count down as the SOC grows, so a
// Schedule call stays a few tens of milliseconds across the corpus: each
// move costs one decode, roughly quadratic in the core count.
func iterBudget(n int) int {
	if n < 1 {
		n = 1
	}
	iters := 24000 / n
	if iters < 400 {
		iters = 400
	}
	if iters > 3000 {
		iters = 3000
	}
	return iters
}
