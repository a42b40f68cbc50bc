// Package bench provides the benchmark SOCs the DAC 2002 paper evaluates
// on: d695 (the academic Duke SOC built from ISCAS-85/89 circuits,
// reconstructed from the open literature) and synthetic stand-ins for the
// three industrial Philips SOCs p22810, p34392 and p93791, whose ITC'02
// benchmark files are not redistributable here.
//
// The synthetic SOCs match the originals in module count and core-type mix.
// Their pattern counts were calibrated once, and are kept as literal data,
// so that the total minimum rectangle area A = Σ_i min_w w·T_i(w) equals
// the value implied by the paper's published lower bounds — which pins the
// area-bound LB column of Table 1 to the paper's numbers exactly. Two
// cores are engineered to reproduce specific narratives:
//
//   - p34392like core 18 is the paper's bottleneck core: highest
//     Pareto-optimal width 10, minimum testing time exactly 544579 cycles,
//     and a T(9) within 7% of T(10) so the δ "bottleneck rescue" heuristic
//     is what recovers the SOC's minimum testing time.
//   - p93791like core 6 reproduces the Fig. 1 staircase shape: Pareto
//     plateau from width 47 to 64 at exactly 114317 cycles.
package bench

import (
	"fmt"

	"repro/internal/pareto"
	"repro/internal/soc"
)

// Paper-implied total minimum areas (wire-cycles), derived from Table 1's
// area-dominated lower bounds: A = W · LB(W) at the smallest reported W.
const (
	AreaP22810 = 6743568  // 16 · 421473
	AreaP34392 = 14990112 // 16 · 936882
	AreaP93791 = 27990208 // 16 · 1749388
	// AreaD695Paper is the paper-implied area for d695 (16 · 41232).
	// d695 is real reconstructed data and is NOT calibrated; its measured
	// area, 657,898, lands 0.28% below this value (TestD695AreaNearPaper
	// allows 1%).
	AreaD695Paper = 659712
)

// MeasuredArea reports Σ_i min_w w·T_i(w) for any SOC at the paper's
// per-core width cap w_max = 64 — the quantity the synthetic SOCs were
// calibrated on.
func MeasuredArea(s *soc.SOC) (int64, error) {
	var total int64
	for _, c := range s.Cores {
		ps, err := pareto.Compute(c, 64)
		if err != nil {
			return 0, err
		}
		total += ps.MinArea()
	}
	return total, nil
}

// D695 returns the academic d695 SOC: ten ISCAS-85/89 cores with the
// benchmark's published I/O, pattern, and scan-chain parameters.
func D695() *soc.SOC {
	s := &soc.SOC{
		Name: "d695",
		Cores: []*soc.Core{
			core(1, "c6288", 0, 32, 32, 0, nil, 12),
			core(2, "c7552", 0, 207, 108, 0, nil, 73),
			core(3, "s838", 0, 34, 1, 0, []int{32}, 75),
			core(4, "s9234", 0, 19, 22, 0, []int{54, 53, 52, 52}, 105),
			core(5, "s38584", 0, 38, 304, 0, chains(18, 45, 14, 44), 110),
			core(6, "s13207", 0, 62, 152, 0, chains(14, 40, 2, 39), 234),
			core(7, "s15850", 0, 77, 150, 0, chains(6, 34, 10, 33), 95),
			core(8, "s5378", 0, 35, 49, 0, []int{46, 45, 44, 44}, 97),
			core(9, "s35932", 0, 35, 320, 0, chains(32, 54, 0, 0), 12),
			core(10, "s38417", 0, 28, 106, 0, chains(4, 52, 28, 51), 68),
		},
	}
	mustValidate(s)
	return s
}

// Demo returns a small 8-core SOC used by the quickstart example and the
// Fig. 2 schedule illustration: a mix of combinational, scan, and BIST
// cores with one hierarchical pair and a precedence chain (memories first,
// per the paper's "memories tested earlier" motivation).
func Demo() *soc.SOC {
	s := &soc.SOC{
		Name: "demo8",
		Cores: []*soc.Core{
			core(1, "riscCPU", 0, 48, 40, 8, chains(8, 96, 4, 90), 220),
			core(2, "dmaCtrl", 1, 30, 26, 0, chains(4, 40, 0, 0), 120),
			core(3, "sram64k", 0, 24, 18, 0, chains(2, 128, 0, 0), 90),
			core(4, "uart", 0, 18, 12, 0, chains(2, 30, 0, 0), 60),
			core(5, "glueLogic", 0, 96, 64, 0, nil, 150),
			core(6, "dspFIR", 0, 36, 36, 0, chains(6, 70, 0, 0), 180),
			core(7, "romBIST", 0, 6, 4, 0, chains(1, 24, 0, 0), 140),
			core(8, "sramBIST", 0, 8, 4, 0, chains(1, 32, 0, 0), 160),
		},
		Precedences: []soc.Precedence{
			{Before: 3, After: 1}, // memory diagnosed before the CPU uses it
			{Before: 3, After: 2},
		},
		Concurrencies: []soc.Concurrency{
			{A: 5, B: 6}, // shared functional bus
		},
	}
	// The two BIST cores share on-chip engine 0.
	s.Cores[6].Test = soc.Test{Patterns: 140, Kind: soc.BISTTest, BISTEngine: 0}
	s.Cores[7].Test = soc.Test{Patterns: 160, Kind: soc.BISTTest, BISTEngine: 0}
	mustValidate(s)
	return s
}

// All returns the four benchmark SOCs in the paper's Table order.
func All() []*soc.SOC {
	return []*soc.SOC{D695(), P22810Like(), P34392Like(), P93791Like()}
}

// ByName returns a benchmark SOC by its name ("d695", "p22810like",
// "p34392like", "p93791like", "demo8").
func ByName(name string) (*soc.SOC, error) {
	switch name {
	case "d695":
		return D695(), nil
	case "p22810like", "p22810":
		return P22810Like(), nil
	case "p34392like", "p34392":
		return P34392Like(), nil
	case "p93791like", "p93791":
		return P93791Like(), nil
	case "demo8", "demo":
		return Demo(), nil
	}
	return nil, fmt.Errorf("bench: unknown SOC %q (want d695, p22810like, p34392like, p93791like, demo8)", name)
}

// core builds a scan-tested core.
func core(id int, name string, parent, in, out, bidir int, scan []int, patterns int) *soc.Core {
	return &soc.Core{
		ID: id, Name: name, Parent: parent,
		Inputs: in, Outputs: out, Bidirs: bidir,
		ScanChains: scan,
		Test:       soc.Test{Patterns: patterns, BISTEngine: -1},
	}
}

// bistCore builds a BIST-tested core attached to an engine.
func bistCore(id int, name string, parent, in, out int, scan []int, patterns, engine int) *soc.Core {
	c := core(id, name, parent, in, out, 0, scan, patterns)
	c.Test.Kind = soc.BISTTest
	c.Test.BISTEngine = engine
	return c
}

// chains builds a scan-chain list: n1 chains of length l1 then n2 of l2.
func chains(n1, l1, n2, l2 int) []int {
	out := make([]int, 0, n1+n2)
	for i := 0; i < n1; i++ {
		out = append(out, l1)
	}
	for i := 0; i < n2; i++ {
		out = append(out, l2)
	}
	return out
}

// repeat builds n chains of length l.
func repeat(n, l int) []int { return chains(n, l, 0, 0) }

func mustValidate(s *soc.SOC) {
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
}
