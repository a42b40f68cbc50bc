// Package repro is an open-source reproduction of "Wrapper/TAM
// Co-Optimization, Constraint-Driven Test Scheduling, and Tester Data
// Volume Reduction for SOCs" (Iyengar, Chakrabarty, Marinissen — DAC 2002):
// an integrated framework for modular system-on-chip test automation.
//
// The framework solves three coupled problems:
//
//   - Problem 1 — wrapper/TAM co-optimization: design a test wrapper for
//     every embedded core, choose a Pareto-optimal TAM width per core, and
//     schedule all core tests on the SOC's W TAM wires by generalized
//     rectangle packing (rectangles may occupy non-contiguous wires:
//     TAM fork-and-merge).
//   - Problem 2 — constraint-driven preemptive scheduling: the same, under
//     precedence constraints, concurrency constraints (including implicit
//     parent/child Intest-vs-Extest exclusion), a power budget, BIST-engine
//     conflicts, and selective test preemption with per-core limits.
//   - Problem 3 — tester data volume: sweep W, observe testing time T(W)
//     and tester data volume D(W) = W·T(W), and pick the "effective" TAM
//     width minimizing C(γ,W) = γ·T/T_min + (1−γ)·D/D_min.
//
// Quick start:
//
//	s := repro.BenchmarkSOC("d695")
//	sch, err := repro.Schedule(s, repro.Options{TAMWidth: 32})
//	if err != nil { ... }
//	fmt.Println(sch.Makespan) // SOC testing time in cycles
//
// Callers issuing repeated runs or sweeps against one SOC should hold a
// Planner: it builds every core's Pareto set once, a staircase plus a
// per-width table of the testing time and the wrapper's longest scan-in
// and scan-out, and serves all subsequent scheduling from those tables
// without designing another wrapper, where the package-level helpers
// rebuild them per call.
//
// The heavy lifting lives in the internal packages (soc, wrapper, pareto,
// constraint, sched, rectpack, lb, datavol, pattern, tamsim, baseline,
// bench, report, experiments); this package re-exports the surface a
// downstream user needs. The cmd/ tools regenerate every table and figure
// of the paper (`socbench -all`).
//
// # Service
//
// cmd/socserved (package internal/service) serves this API over HTTP:
// SOCs are deduplicated by Fingerprint; Planners and schedule documents
// are memoized by one singleflight-LRU, bounded by Planner count and by
// stored bytes respectively; and long sweeps run as cancellable async
// jobs. The context-aware
// variants (Planner.ScheduleBestContext, Planner.SweepWidthsContext)
// carry that cancellation down into the sweep worker pools; with a nil or
// never-cancelled context they return exactly what their context-free
// counterparts return.
//
// # Batching
//
// Planner.ScheduleBatch runs many (params, mode) items through one
// bounded worker pool and returns one result per item, in item order.
// Each item is answered by Planner.ScheduleItem, the one dispatch that
// Schedule, ScheduleBest and the service share: a classic single run for
// a non-Best item on the default backend, the backend's best mode
// otherwise. Items with the same mode-canonical key (BatchItem.Key:
// Options.Workers excluded, MaxWidth's default folded, Best implied for
// non-classic backends, every other field as sent) are computed once and
// share the resulting schedule. The HTTP
// surface mirrors this as POST /v1/batch, backed by a content-addressed
// result cache keyed by (fingerprint, BatchItem.Key): repeat schedule
// requests — batched or not — are served the exact bytes of the first
// answer, with hit/miss/eviction counters on /metrics.
//
// # Concurrency
//
// A sched.Optimizer (and therefore a Planner) is safe for concurrent use:
// once constructed it holds only the SOC and the immutable per-core Pareto
// sets with their per-width tables, and every scheduling run allocates its
// own mutable state (Planner.WrapperDesign designs a new wrapper per
// call). The parameter sweeps exploit this — ScheduleBest fans the
// (α, δ, slack) grid and SweepWidths fans the TAM width range out over a
// worker pool. The fan-out is bounded by the
// Workers knob (Options.Workers, or the workers argument of
// SweepWidthsWorkers): 0 uses GOMAXPROCS, 1 forces the sequential path.
// Parallel sweeps are deterministic: results are collected per grid point
// and compared in grid order, so the returned schedule or sweep is
// identical to the sequential one for any worker count.
package repro
