package rectpack

import (
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// skipFuzzPlan is one of FuzzAnnealSkip's optimizers and the
// LargerCorePreemptions(2) budgets its budgeted inputs use.
type skipFuzzPlan struct {
	name   string
	opt    *sched.Optimizer
	budget map[int]int
}

// fuzzMove makes on g the move four fuzz bytes describe and returns the
// undo value that reverts it. b[0] picks the kind: swap or relocate
// priority positions b[1] and b[2], or change the genes of the core at
// position b[1]: its cap to a width from 1 to wmax (and, when b[3] is odd,
// its floor too), its floor to a width from 0 to wmax, or its split gene
// to a fraction b[2]/256 of its serial time. Unlike neighbor's moves, a
// floor may end up above the snapped cap, and any core may get a split
// gene.
func fuzzMove(g *genome, cores []*core, wmax int, b []byte) undo {
	n := len(g.perm)
	x, y := int(b[1])%n, int(b[2])%n
	switch b[0] % 5 {
	case 0:
		g.perm[x], g.perm[y] = g.perm[y], g.perm[x]
		return undo{kind: undoSwap, i: x, j: y}
	case 1:
		relocate(g.perm, x, y)
		return undo{kind: undoRelocate, i: x, j: y}
	}
	u := undo{kind: undoGenes, ci: x, cap: g.cap[x], floor: g.floor[x], split: g.split[x]}
	switch b[0] % 5 {
	case 2:
		g.cap[x] = 1 + int(b[2])%wmax
		if b[3]%2 == 1 {
			g.floor[x] = int(b[3]/2) % (wmax + 1)
		}
	case 3:
		g.floor[x] = int(b[2]) % (wmax + 1)
	default:
		g.split[x] = cores[x].set.Time(1) * int64(b[2]) / 256
	}
	return u
}

// runSkipFuzz builds the fixture the fuzz values pick (demo8 or d695 by
// the parity of which, a TAM width from 1 to 80, budgets or none), starts
// from the anneal seed seed picks, and makes the move of each four bytes
// of moves, at most 64, checking each with skipChecker.step. It returns
// the number of gene moves keepsDecode answered that changed a gene.
func runSkipFuzz(t testing.TB, plans [2]skipFuzzPlan, which, width uint8, budgets bool, seed uint8, moves []byte) int {
	plan := plans[which%2]
	params := sched.Params{TAMWidth: 1 + int(width)%80}
	if budgets {
		params.MaxPreemptions = plan.budget
	}
	fx := newFixture(t, plan.name, plan.opt, params)
	sc := newSkipChecker(fx)
	wmax := min(fx.params.MaxWidth, fx.params.TAMWidth)
	gs := seeds(fx.cores, fx.params.TAMWidth, modeAnneal)
	g := gs[int(seed)%len(gs)].clone()
	changed := 0
	for k := 0; k+4 <= len(moves) && k < 4*64; k += 4 {
		u, answered := sc.step(t, fx.name, g, func(g *genome) undo { return fuzzMove(g, fx.cores, wmax, moves[k:k+4]) })
		if answered && u.kind == undoGenes && (g.cap[u.ci] != u.cap || g.floor[u.ci] != u.floor) {
			changed++
		}
	}
	return changed
}

// FuzzAnnealSkip: from an anneal seed of demo8 or d695, with and without
// LargerCorePreemptions(2) budgets, every fuzzed move (positions, caps,
// floors, splits) that anneal's skip test answers from the start trace of
// the genome's decode leaves that decode exactly as it was, failed
// decodes included. The seed inputs are seeded random move strings, among
// which the trace answers cap and floor moves that change a gene.
func FuzzAnnealSkip(f *testing.F) {
	var plans [2]skipFuzzPlan
	for i, name := range []string{"demo8", "d695"} {
		opt := optimizer(f, name)
		budget, err := opt.LargerCorePreemptions(2)
		if err != nil {
			f.Fatal(err)
		}
		plans[i] = skipFuzzPlan{name: name, opt: opt, budget: budget}
	}
	rng := rand.New(rand.NewSource(1))
	changed := 0
	for i := range 8 {
		which, width, budgets, seed := uint8(i), uint8(8+rng.Intn(40)), i%4 >= 2, uint8(rng.Intn(256))
		moves := make([]byte, 4*64)
		rng.Read(moves)
		f.Add(which, width, budgets, seed, moves)
		changed += runSkipFuzz(f, plans, which, width, budgets, seed, moves)
	}
	if changed == 0 {
		f.Fatal("the trace answers no gene-changing move of the seed inputs, so the fuzzer would not check the rule")
	}
	f.Fuzz(func(t *testing.T, which, width uint8, budgets bool, seed uint8, moves []byte) {
		runSkipFuzz(t, plans, which, width, budgets, seed, moves)
	})
}
