package rectpack

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/obs"
	"repro/internal/sched"
)

// anneal runs seeded simulated annealing from the start genome: one random
// move per iteration, Metropolis acceptance on the decoded makespan,
// geometric cooling, and a restart from the best known solution when
// progress stalls. It returns the improvement chain, oldest first, which
// begins with start itself. The moves are drawn from params.Seed (zero
// means sched.DefaultSeed).
func anneal(ctx context.Context, sp *obs.Span, dec *decoder, params sched.Params, start *genome, startCost int64) ([]*genome, error) {
	seed := params.Seed
	if seed == 0 {
		seed = sched.DefaultSeed
	}
	rng := rand.New(rand.NewSource(seed))
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
	for i := 0; i < iters; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		u := neighbor(cur, cores, wmax, budgeted, rng)
		res, err := dec.decode(cur)
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
	return chain, nil
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
