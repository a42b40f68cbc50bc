// Package rectpack implements the rectangle-packing scheduling backends —
// "rectpack", "preempt-rectpack" and "anneal" — as three configurations of
// one packing engine, in the spirit of the rectangle bin-packing
// formulations of Babu et al. (arXiv:1008.4448), Islam et al.
// (arXiv:1008.3320) and the split placements of arXiv:1008.4446.
//
// The engine packs each core's Pareto-optimal (width, time) rectangles
// directly. A candidate solution is a genome: a core priority order, a
// per-core width cap and quality floor over the Pareto staircase, a forced
// split point for cores with preemption budget, and a priority-preemption
// bit. One event-driven best-fit-decreasing decoder turns a genome into a
// placement: at every schedule event it starts each eligible core, in
// priority order, at the largest Pareto width that fits the free TAM wires
// under its cap and floor, subject to the same precedence / concurrency /
// power / BIST checks the classic scheduler uses. A split rectangle is cut
// into segments placed at the same width (the vertical-split rule), each
// resume after a gap paying the wrapper's preemption penalty.
//
// The backends differ only in their seed genomes and move budget:
//
//   - rectpack decodes the 26 non-preemptive seeds (four size orderings
//     crossed with a width-cap ladder, plus quality-floor passes) and emits
//     the best;
//   - preempt-rectpack adds 20 priority-preemption seeds, in which a core
//     blocked by its floor suspends weaker running cores that have budget
//     left, so it is never worse than rectpack on the same parameters;
//   - anneal adds two ascending orders and then runs seeded simulated
//     annealing from the best seed, so it too is never worse than rectpack.
//
// All three reuse the sched.Optimizer's cached Pareto staircases and
// wrapper designs, so no wrapper is ever redesigned here, and register
// themselves with the sched backend registry on import. Every backend is
// deterministic; anneal under a fixed Params.Seed (zero means
// sched.DefaultSeed).
package rectpack

import (
	"context"

	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Registry names of the three backends.
const (
	Name        = "rectpack"
	PreemptName = "preempt-rectpack"
	AnnealName  = "anneal"
)

// Failpoints the chaos suite arms to make a backend fail, stall, or hang
// inside a portfolio race.
const (
	siteSchedule = "rectpack/schedule"
	sitePreempt  = "rectpack/preempt/schedule"
	siteAnneal   = "anneal/schedule"
)

// Backend is the non-preemptive rectangle packer. The zero value is ready
// to use; it is stateless and safe for concurrent use.
type Backend struct{}

// New returns the rectpack backend (also registered globally on import).
func New() *Backend { return &Backend{} }

// Name returns "rectpack".
func (*Backend) Name() string { return Name }

// Declines reports the regime rectpack cannot honestly serve: non-zero
// preemption budgets. Rectpack never splits a rectangle, so racing it
// against a budget would silently return a non-preemptive schedule; the
// preempt-rectpack backend covers that regime instead.
func (*Backend) Declines(params sched.Params) (reason string, declined bool) {
	if hasBudget(params.MaxPreemptions) {
		return "preemption budgets are not supported (preempt-rectpack splits rectangles)", true
	}
	return "", false
}

// Schedule packs the optimizer's SOC with every non-preemptive seed and
// returns the shortest schedule.
func (*Backend) Schedule(ctx context.Context, opt *sched.Optimizer, params sched.Params) (*sched.Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.Start(ctx, "rectpack/pack")
	defer span.End()
	if err := chaos.InjectContext(ctx, siteSchedule); err != nil {
		return nil, err
	}
	return search(ctx, span, opt, params, modePack)
}

// PreemptBackend is the splitting rectangle packer. The zero value is
// ready to use; it is stateless and safe for concurrent use.
type PreemptBackend struct{}

// NewPreempt returns the preempt-rectpack backend (also registered
// globally on import).
func NewPreempt() *PreemptBackend { return &PreemptBackend{} }

// Name returns "preempt-rectpack".
func (*PreemptBackend) Name() string { return PreemptName }

// Declines reports the regime this backend leaves to plain rectpack: with
// every preemption budget zero no rectangle may ever be split, so the
// preemptive seeds collapse into the non-preemptive ones and racing both
// backends would duplicate work.
func (*PreemptBackend) Declines(params sched.Params) (reason string, declined bool) {
	if !hasBudget(params.MaxPreemptions) {
		return "no preemption budgets (rectpack covers the non-preemptive regime)", true
	}
	return "", false
}

// Schedule packs the optimizer's SOC with every non-preemptive and
// priority-preemption seed and returns the shortest placeable schedule.
func (*PreemptBackend) Schedule(ctx context.Context, opt *sched.Optimizer, params sched.Params) (*sched.Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.Start(ctx, "rectpack/preempt")
	defer span.End()
	if err := chaos.InjectContext(ctx, sitePreempt); err != nil {
		return nil, err
	}
	return search(ctx, span, opt, params, modePreempt)
}

// AnnealBackend is the annealing local-search backend. The zero value is
// ready to use; it is stateless and safe for concurrent use (each Schedule
// call owns its own seeded generator).
type AnnealBackend struct{}

// NewAnneal returns the anneal backend (also registered globally on
// import).
func NewAnneal() *AnnealBackend { return &AnnealBackend{} }

// Name returns "anneal".
func (*AnnealBackend) Name() string { return AnnealName }

// Schedule anneals outward from the best non-preemptive or ascending seed
// and returns the shortest placeable schedule found.
func (*AnnealBackend) Schedule(ctx context.Context, opt *sched.Optimizer, params sched.Params) (*sched.Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := obs.Start(ctx, "anneal/search")
	defer span.End()
	if err := chaos.InjectContext(ctx, siteAnneal); err != nil {
		return nil, err
	}
	return search(ctx, span, opt, params, modeAnneal)
}

// hasBudget reports whether any core has a non-zero preemption budget.
func hasBudget(budgets map[int]int) bool {
	for _, b := range budgets {
		if b > 0 {
			return true
		}
	}
	return false
}

func init() {
	sched.RegisterBackend(New())
	sched.RegisterBackend(NewPreempt())
	sched.RegisterBackend(NewAnneal())
	chaos.RegisterSites(siteSchedule, sitePreempt, siteAnneal)
}
