package rectpack

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/constraint"
	"repro/internal/obs"
	"repro/internal/sched"
)

// anneal runs seeded simulated annealing from the start genome: one random
// move per iteration, Metropolis acceptance on the decoded makespan,
// geometric cooling, and a restart from the best known solution when
// progress stalls. It returns the improvement chain, oldest first, which
// begins with start itself. The moves are drawn from params.Seed (zero
// means sched.DefaultSeed).
func anneal(ctx context.Context, sp *obs.Span, cores []*core, chk *constraint.Checker, params sched.Params, penFor func(id, width int) int64, start *genome, startCost int64) ([]*genome, error) {
	seed := params.Seed
	if seed == 0 {
		seed = sched.DefaultSeed
	}
	rng := rand.New(rand.NewSource(seed))
	wmax := min(params.MaxWidth, params.TAMWidth)
	anyBudget := false
	for _, c := range cores {
		anyBudget = anyBudget || c.budget > 0
	}
	chain := []*genome{start}
	cur, curCost := start.clone(), startCost
	bestCost := curCost
	iters := iterBudget(len(cores))
	temp := max(float64(bestCost)/100, 1)
	cooling := math.Pow(1e-3, 1/float64(iters))
	stall := 0
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		undo := neighbor(cur, cores, wmax, anyBudget, rng)
		res, err := decode(cores, cur, chk, params.TAMWidth, penFor)
		cost := int64(math.MaxInt64)
		if err == nil {
			cost = res.makespan
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
			undo()
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
	return chain, nil
}

// neighbor mutates g in place with one random move and returns an undo
// closure. Moves: swap two priority positions, relocate one core in the
// priority order, re-aim a core at a different Pareto point, move its
// quality floor, or (for budget-bearing cores) set, move, or clear its
// forced split point.
func neighbor(g *genome, cores []*core, wmax int, anyBudget bool, rng *rand.Rand) func() {
	n := len(g.perm)
	kind := rng.Intn(100)
	if !anyBudget && kind >= 90 {
		kind = 60 // fold split moves into cap moves
	}
	switch {
	case kind < 30: // swap two priority positions
		i, j := rng.Intn(n), rng.Intn(n)
		g.perm[i], g.perm[j] = g.perm[j], g.perm[i]
		return func() { g.perm[i], g.perm[j] = g.perm[j], g.perm[i] }
	case kind < 50: // relocate one core in the priority order
		from, to := rng.Intn(n), rng.Intn(n)
		v := g.perm[from]
		g.perm = append(g.perm[:from], g.perm[from+1:]...)
		g.perm = append(g.perm[:to], append([]int{v}, g.perm[to:]...)...)
		return func() {
			g.perm = append(g.perm[:to], g.perm[to+1:]...)
			g.perm = append(g.perm[:from], append([]int{v}, g.perm[from:]...)...)
		}
	case kind < 75: // re-aim a core at a different Pareto point
		ci := rng.Intn(n)
		old := g.cap[ci]
		pts := cores[ci].set.Points
		if rng.Intn(8) == 0 {
			g.cap[ci] = wmax
		} else {
			g.cap[ci] = pts[rng.Intn(len(pts))].Width
		}
		oldFloor := g.floor[ci]
		if w, ok := cores[ci].set.SnapDown(g.cap[ci]); ok && g.floor[ci] > w {
			g.floor[ci] = 0 // keep the genome feasible: floor above cap never starts
		}
		return func() { g.cap[ci], g.floor[ci] = old, oldFloor }
	case kind < 90: // move a core's quality floor
		ci := rng.Intn(n)
		old := g.floor[ci]
		if rng.Intn(2) == 0 {
			g.floor[ci] = 0
		} else if w, ok := cores[ci].set.SnapDown(g.cap[ci]); ok {
			pts := cores[ci].set.Points
			f := pts[rng.Intn(len(pts))].Width
			if f > w {
				f = w
			}
			g.floor[ci] = f
		}
		return func() { g.floor[ci] = old }
	default: // set, move, or clear a forced split point
		budgeted := make([]int, 0, n)
		for i, c := range cores {
			if c.budget > 0 {
				budgeted = append(budgeted, i)
			}
		}
		ci := budgeted[rng.Intn(len(budgeted))]
		old := g.split[ci]
		if old != 0 && rng.Intn(3) == 0 {
			g.split[ci] = 0
		} else {
			w, ok := cores[ci].set.SnapDown(g.cap[ci])
			if !ok {
				w = cores[ci].set.MaxParetoWidth()
			}
			dur := cores[ci].set.Time(w)
			if dur > 1 {
				// Split somewhere in the middle three quarters of the run.
				lo := dur / 8
				if lo < 1 {
					lo = 1
				}
				hi := dur - dur/8
				if hi <= lo {
					hi = lo + 1
				}
				g.split[ci] = lo + rng.Int63n(hi-lo)
			}
		}
		return func() { g.split[ci] = old }
	}
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
