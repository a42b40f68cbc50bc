package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/corpus"
	"repro/internal/sched"
	"repro/internal/soc"
)

// TestClassicNeverSplitsATest: the classic runner places each test as one
// rectangle that keeps its wires until it ends, so it never preempts, not
// even a core with a budget. Every point of the classic grid, for every
// corpus scenario at its own params (budgets, power, hierarchy and
// heuristic switches included) and for four bench.Synth constraint
// regimes with LargerCorePreemptions(3) budgets at three widths, must give
// every core one piece, no preemption and no penalty cycles, and must pass
// Optimizer.Verify.
func TestClassicNeverSplitsATest(t *testing.T) {
	type input struct {
		name   string
		s      *soc.SOC
		params sched.Params
	}
	var inputs []input
	for _, sc := range corpus.All() {
		s := sc.Build()
		p, err := sc.ResolveParams(s)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{sc.Name, s, p})
	}
	for _, cfg := range []bench.SynthConfig{
		{Name: "synth-power", Cores: 24, Seed: 11, PowerValues: true, PowerBudgetPct: 130},
		{Name: "synth-constraints", Cores: 24, Seed: 12, ExtraPrecedences: 6, ExtraConcurrencies: 6},
		{Name: "synth-bist1", Cores: 24, Seed: 13, BISTEngines: 1},
		{Name: "synth-hierarchy", Cores: 24, Seed: 14, HierarchyPct: 40},
	} {
		s := bench.Synth(cfg)
		mp, err := sched.LargerCorePreemptions(s, sched.DefaultMaxWidth, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{12, 24, 48} {
			inputs = append(inputs, input{fmt.Sprintf("%s-w%d", s.Name, w), s, sched.Params{TAMWidth: w, MaxPreemptions: mp}})
		}
	}
	for _, in := range inputs {
		opt, err := sched.New(in.s, sched.DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		slacks := []int{in.params.InsertSlack}
		if in.params.InsertSlack == 0 {
			slacks = sched.DefaultInsertSlacks()
		}
		for _, slack := range slacks {
			for _, pct := range sched.DefaultPercents() {
				for _, delta := range sched.DefaultDeltas() {
					p := in.params
					p.Percent, p.Delta, p.InsertSlack = pct, delta, slack
					sch, err := opt.Run(p)
					if err != nil {
						t.Fatalf("%s α=%d δ=%d slack=%d: %v", in.name, pct, delta, slack, err)
					}
					for id, a := range sch.Assignments {
						if a.Preemptions != 0 || a.PenaltyCycles != 0 || len(a.Pieces) != 1 {
							t.Fatalf("%s α=%d δ=%d slack=%d: core %d has %d preemptions, %d penalty cycles and %d pieces",
								in.name, pct, delta, slack, id, a.Preemptions, a.PenaltyCycles, len(a.Pieces))
						}
					}
					if err := opt.Verify(sch); err != nil {
						t.Fatalf("%s α=%d δ=%d slack=%d: %v", in.name, pct, delta, slack, err)
					}
				}
			}
		}
	}
}
