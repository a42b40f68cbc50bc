package repro

import (
	"context"
	"fmt"
	"io"

	"repro/internal/bench"
	"repro/internal/datavol"
	"repro/internal/lb"
	"repro/internal/pareto"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/schedio"
	"repro/internal/soc"
	"repro/internal/socfile"
	"repro/internal/tamsim"
	"repro/internal/wrapper"
	"repro/internal/wrapperrtl"

	// Register the search backends: every consumer of this package (the
	// CLIs, the service, the examples) schedules with the full backend
	// registry — classic, rectpack, preempt-rectpack, anneal, and
	// portfolio.
	_ "repro/internal/rectpack"
)

// Re-exported core types: the data model, the scheduler's inputs/outputs,
// and the Problem-3 sweep results.
type (
	// SOC is a system-on-chip test description.
	SOC = soc.SOC
	// Core is one embedded core.
	Core = soc.Core
	// Test is a core's test description.
	Test = soc.Test
	// Precedence expresses "Before completes before After begins".
	Precedence = soc.Precedence
	// Concurrency expresses "A and B never run together".
	Concurrency = soc.Concurrency
	// Options tunes one scheduling run (TAM width, α/δ, preemption,
	// power budget, heuristic toggles).
	Options = sched.Params
	// TestSchedule is a completed schedule: per-core assignments whose
	// pieces carry their concrete TAM wires.
	TestSchedule = sched.Schedule
	// CoreAssignment is one core's disposition in a schedule.
	CoreAssignment = sched.Assignment
	// WrapperDesign is a core's wrapper configuration at one TAM width.
	WrapperDesign = wrapper.Design
	// ParetoSet is a core's Pareto-optimal (width, time) set.
	ParetoSet = pareto.Set
	// WidthSweep holds T(W) and D(W) over a range of TAM widths.
	WidthSweep = datavol.Sweep
	// EffectiveWidth is a Problem-3 outcome: the width minimizing C(γ,·).
	EffectiveWidth = datavol.Effective
	// SimulationResult is the outcome of replaying a schedule on the
	// simulated ATE + TAM + wrappers.
	SimulationResult = tamsim.Result
)

// Test kinds.
const (
	ScanTest = soc.ScanTest
	BISTTest = soc.BISTTest
)

// DefaultBackend is the scheduling backend used when Options.Backend is
// empty: the paper's grid-swept preferred-width heuristic ("classic").
const DefaultBackend = sched.DefaultBackend

// ErrUnknownBackend is wrapped by every error caused by an Options.Backend
// value naming no registered backend; test with errors.Is.
var ErrUnknownBackend = sched.ErrUnknownBackend

// UnknownCoreError reports a core ID the SOC does not define, referenced by
// a schedule's assignment (a stale, tampered, or mismatched schedule:
// Verify, Planner.Verify, CheckInvariants, and LoadSchedule return it) or
// by a positive Options.MaxPreemptions budget (every scheduling call
// returns it, with Budget set, before any backend runs); extract with
// errors.As.
type UnknownCoreError = sched.UnknownCoreError

// SchedulerBackends returns the names of the registered scheduling
// backends, sorted: "anneal" (simulated annealing over the packer's
// genomes), "classic" (the paper's heuristic), "portfolio" (race
// everything, keep the shortest verified schedule), "preempt-rectpack"
// (the packer with priority preemption, for runs with preemption budgets),
// "rectpack" (best-fit decreasing rectangle bin packing), plus anything
// else registered through sched.RegisterBackend.
func SchedulerBackends() []string { return sched.Backends() }

// DefaultMaxWidth is the per-core TAM width cap (the paper's 64).
const DefaultMaxWidth = sched.DefaultMaxWidth

// Schedule computes a test schedule for the SOC with the given options.
// Zero-valued option fields take the paper's defaults. With the default
// classic backend this is a single scheduler run at the given (α, δ);
// a non-classic Options.Backend dispatches to that backend's best-schedule
// mode (rectpack and portfolio have no per-run (α, δ) grid to pin).
func Schedule(s *SOC, opts Options) (*TestSchedule, error) {
	return scheduleOnce(context.Background(), s, BatchItem{Params: opts})
}

// scheduleOnce answers one request on a fresh optimizer sized to the
// request's width cap.
func scheduleOnce(ctx context.Context, s *SOC, it BatchItem) (*TestSchedule, error) {
	o, err := sched.New(s, it.Params.Defaults().MaxWidth)
	if err != nil {
		return nil, err
	}
	return o.ScheduleItem(ctx, it)
}

// Planner is a reusable scheduling session for one SOC. It precomputes
// every core's Pareto set once, designing each core's wrapper at every
// width from 1 to 64 and keeping, per width, only the testing time and the
// longest scan-in and scan-out; all subsequent scheduling runs, parameter
// sweeps, and width sweeps read those tables and design no wrapper. A
// service answering repeated sweeps should hold one Planner per SOC — the
// package-level Schedule/ScheduleBest/SweepWidths helpers rebuild the sets
// per call.
//
// A Planner is safe for concurrent use by multiple goroutines.
type Planner struct {
	opt *sched.Optimizer
}

// NewPlanner validates the SOC and builds the Pareto sets (width cap: the
// paper's 64 per core). The SOC must not be mutated while the Planner is
// in use.
func NewPlanner(s *SOC) (*Planner, error) {
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		return nil, err
	}
	return &Planner{opt: opt}, nil
}

// Schedule computes one test schedule from the cached Pareto sets: a
// single classic run at the given (α, δ), or — when Options.Backend names
// a non-classic backend — that backend's best schedule.
func (p *Planner) Schedule(opts Options) (*TestSchedule, error) {
	return p.opt.ScheduleItem(context.Background(), BatchItem{Params: opts})
}

// ScheduleItem answers one request from the cached Pareto sets under ctx: a
// single classic run when the item leaves Best unset on the default
// backend (as Schedule), the backend's best mode otherwise (as
// ScheduleBestContext).
func (p *Planner) ScheduleItem(ctx context.Context, it BatchItem) (*TestSchedule, error) {
	return p.opt.ScheduleItem(ctx, it)
}

// ScheduleBest returns the best schedule of the backend named by
// Options.Backend: the classic default sweeps the (α, δ) parameter grid
// (deduplicating grid points that resolve to the same per-core preferred
// widths) and returns the schedule with the smallest SOC testing time;
// "rectpack" packs its strategy portfolio; "portfolio" races every
// registered backend and returns the shortest verified schedule. Unknown
// names fail with an error wrapping ErrUnknownBackend.
func (p *Planner) ScheduleBest(opts Options) (*TestSchedule, error) {
	return p.ScheduleBestContext(context.Background(), opts)
}

// ScheduleBestContext is ScheduleBest with cancellation: once ctx is done
// the backend stops launching scheduler runs and returns ctx's error.
// A nil or never-cancelled ctx returns exactly what ScheduleBest returns.
func (p *Planner) ScheduleBestContext(ctx context.Context, opts Options) (*TestSchedule, error) {
	return p.opt.ScheduleBackend(ctx, opts)
}

// BatchItem is one scheduling request for Planner.ScheduleItem or
// Planner.ScheduleBatch: the run's Options plus the mode bit (Best selects
// the backend's best-schedule mode, exactly the Schedule vs ScheduleBest
// split).
type BatchItem = sched.BatchItem

// BatchResult is one batch item's outcome: the schedule or the item's own
// error. Items deduplicated inside a batch share one *TestSchedule —
// treat it as read-only.
type BatchResult = sched.BatchResult

// ScheduleBatch runs many scheduling requests against the Planner's
// cached Pareto sets with a bounded worker pool and returns one result per
// item, in item order. Identical items (same canonical parameters; the
// Workers knob is not semantic) are computed once and share the result,
// giving library callers the same batching and deduplication semantics as
// the service's POST /v1/batch endpoint and its content-addressed result
// cache. One failing item never fails the batch — its error lands in its
// own result slot. workers bounds the fan-out (0 = GOMAXPROCS, 1 =
// sequential); results are identical for any worker count. Once ctx is
// done, unstarted items fail with ctx's error.
func (p *Planner) ScheduleBatch(ctx context.Context, items []BatchItem, workers int) []BatchResult {
	return p.opt.ScheduleBatch(ctx, items, workers)
}

// SOC returns the Planner's SOC (read-only; mutating it invalidates the
// Planner's Pareto sets).
func (p *Planner) SOC() *SOC { return p.opt.SOC() }

// SweepWidths schedules the SOC at every TAM width in [lo, hi] (workers
// as in SweepWidthsWorkers), reusing the Planner's caches across widths.
func (p *Planner) SweepWidths(lo, hi, workers int) (*WidthSweep, error) {
	return datavol.RunWith(p.opt, datavol.Config{WidthLo: lo, WidthHi: hi, Workers: workers})
}

// SweepWidthsContext is SweepWidths with cancellation: once ctx is done
// the width fan-out and the per-width grid sweeps stop promptly and ctx's
// error is returned. A nil or never-cancelled ctx returns exactly what
// SweepWidths returns.
func (p *Planner) SweepWidthsContext(ctx context.Context, lo, hi, workers int) (*WidthSweep, error) {
	return datavol.RunWithContext(ctx, p.opt, datavol.Config{WidthLo: lo, WidthHi: hi, Workers: workers})
}

// Verify is CheckInvariants plus the timing model: every structural
// invariant, then each core's base time and preemption penalty against its
// wrapper's scan lengths and the makespan against the last piece end, with
// the scan lengths read from the cached Pareto sets.
func (p *Planner) Verify(sch *TestSchedule) error {
	return p.opt.Verify(sch)
}

// WrapperDesign designs the wrapper of a core at a width in
// 1..DefaultMaxWidth (nil for an unknown core or a width out of range),
// exactly as DesignWrapper does. The Planner keeps no wrapper chains, so
// every call designs anew and the design belongs to the caller.
func (p *Planner) WrapperDesign(coreID, width int) *WrapperDesign {
	c := p.opt.SOC().Core(coreID)
	if c == nil || width < 1 || width > DefaultMaxWidth {
		return nil
	}
	d, _ := wrapper.DesignWrapper(c, width) // fails only for a nil core or width < 1
	return d
}

// Pareto returns the cached Pareto set of a core.
func (p *Planner) Pareto(coreID int) *ParetoSet {
	return p.opt.ParetoSet(coreID)
}

// ScheduleBest returns the best schedule of the backend named by
// Options.Backend (empty = classic: sweep the (α, δ) parameter grid and
// keep the smallest SOC testing time). Grid points and portfolio racers
// are independent scheduler runs fanned out over opts.Workers goroutines
// (0 = all CPUs, 1 = sequential); the result is identical either way.
func ScheduleBest(s *SOC, opts Options) (*TestSchedule, error) {
	return scheduleOnce(context.Background(), s, BatchItem{Params: opts, Best: true})
}

// VerifySchedule is CheckInvariants plus the timing model: every
// structural invariant (packing, constraints), then each core's base time
// and preemption penalty against a freshly designed wrapper and the
// makespan against the last piece end.
func VerifySchedule(s *SOC, sch *TestSchedule) error {
	return sched.Verify(s, sch)
}

// CheckInvariants is the backend-independent property checker: straight
// from the raw assignments it re-derives that every core is tested exactly
// once, no TAM wire carries two tests at once, the power budget is never
// exceeded, and every precedence and mutual-exclusion edge is honored.
// VerifySchedule and Planner.Verify are this check plus the timing model;
// CheckInvariants never consults the timing model or wrapper designs, so
// it accepts any correct schedule regardless of which backend (or
// external tool) produced it.
func CheckInvariants(s *SOC, sch *TestSchedule) error {
	return sched.CheckInvariants(s, sch)
}

// Simulate replays a schedule on the simulated tester: wire-level TAM
// occupancy, ATE vector memory, and bit-accurate wrapper shifting for
// affordably-sized cores.
func Simulate(s *SOC, sch *TestSchedule) (*SimulationResult, error) {
	return tamsim.Simulate(s, sch, tamsim.Options{})
}

// DesignWrapper designs a core's test wrapper for the given TAM width
// (the paper's Design_wrapper, Best-Fit-Decreasing).
func DesignWrapper(c *Core, width int) (*WrapperDesign, error) {
	return wrapper.DesignWrapper(c, width)
}

// ComputePareto returns the core's Pareto-optimal (width, time) set for
// widths 1..maxWidth.
func ComputePareto(c *Core, maxWidth int) (*ParetoSet, error) {
	return pareto.Compute(c, maxWidth)
}

// LowerBound returns the scheduling lower bound LB(W) = max(⌈A/W⌉,
// bottleneck) for the SOC at TAM width w.
func LowerBound(s *SOC, w int) (int64, error) {
	b, err := lb.Compute(s, w, DefaultMaxWidth)
	if err != nil {
		return 0, err
	}
	return b.Value(), nil
}

// SweepWidths schedules the SOC at every TAM width in [lo, hi] and returns
// the T(W)/D(W) sweep behind the paper's Fig. 9 and Table 2. Widths are
// scheduled concurrently across all CPUs; the sweep is deterministic
// regardless of parallelism. Use SweepWidthsWorkers to bound the fan-out.
func SweepWidths(s *SOC, lo, hi int) (*WidthSweep, error) {
	return SweepWidthsWorkers(s, lo, hi, 0)
}

// SweepWidthsWorkers is SweepWidths with an explicit concurrency bound:
// workers = 0 uses all CPUs, 1 forces the sequential path.
func SweepWidthsWorkers(s *SOC, lo, hi, workers int) (*WidthSweep, error) {
	return datavol.Run(s, datavol.Config{WidthLo: lo, WidthHi: hi, Workers: workers})
}

// PickEffectiveWidth minimizes the normalized cost C(γ,W) over a sweep.
func PickEffectiveWidth(sw *WidthSweep, gamma float64) (EffectiveWidth, error) {
	return sw.EffectiveWidth(gamma)
}

// PreemptionPolicy builds the paper's preemption setting: a budget of n
// preemptions for the larger cores (minimum testing time at or above the
// median), none for the rest.
func PreemptionPolicy(s *SOC, n int) (map[int]int, error) {
	return sched.LargerCorePreemptions(s, DefaultMaxWidth, n)
}

// PowerBudget returns a power budget scaled from the largest single-test
// power (factorPct percent of it; 110 reproduces the paper-style Table 1
// power column).
func PowerBudget(s *SOC, factorPct int) int {
	return sched.DefaultPowerBudget(s, factorPct)
}

// BenchmarkSOC returns one of the built-in benchmark SOCs: "d695",
// "p22810like", "p34392like", "p93791like", or "demo8". It panics on an
// unknown name (programmer error); use bench.ByName for error handling.
func BenchmarkSOC(name string) *SOC {
	s, err := bench.ByName(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Fingerprint returns the canonical content fingerprint of an SOC: the hex
// SHA-256 of its normalized serialized description. Semantically identical
// SOCs (same cores, tests, and constraint sets, regardless of constraint
// listing order) fingerprint identically, so the fingerprint is a stable
// cache key for Planners and schedules — a service holds one Planner per
// fingerprint, not one per upload.
func Fingerprint(s *SOC) string {
	return socfile.Fingerprint(s)
}

// LoadSOC parses an SOC description file (.soc grammar; see package
// socfile).
func LoadSOC(path string) (*SOC, error) {
	return socfile.ParseFile(path)
}

// ReadSOC parses an SOC description from a reader.
func ReadSOC(r io.Reader) (*SOC, error) {
	return socfile.Parse(r)
}

// WriteSOC serializes an SOC description to a writer.
func WriteSOC(w io.Writer, s *SOC) error {
	return socfile.Write(w, s)
}

// Gantt renders an ASCII Gantt chart of the schedule (the paper's Fig. 2
// bin view) with the given character width (0 = default).
func Gantt(w io.Writer, sch *TestSchedule, cols int) error {
	return report.Gantt(w, sch, cols)
}

// GanttSVG renders the packed bin as an SVG document.
func GanttSVG(w io.Writer, sch *TestSchedule) error {
	return report.SVG(w, sch)
}

// FormatAssignment summarizes one core's assignment for logs.
func FormatAssignment(a *CoreAssignment) string {
	return fmt.Sprintf("core %d: width %d, [%d,%d), %d piece(s), %d preemption(s)",
		a.CoreID, a.Width, a.Start(), a.End(), len(a.Pieces), a.Preemptions)
}

// WrapperRTL is the elaborated IEEE 1500-style structural wrapper for one
// core at one TAM width.
type WrapperRTL = wrapperrtl.Module

// ElaborateWrapper turns a wrapper design into structural hardware: WIR,
// bypass, and per-wire wrapper chains. Use its WriteVerilog method to emit
// a structural Verilog module.
func ElaborateWrapper(c *Core, d *WrapperDesign) (*WrapperRTL, error) {
	return wrapperrtl.Elaborate(c, d)
}

// SaveSchedule serializes a schedule as versioned JSON for downstream
// tools (ATE program generators, dashboards).
func SaveSchedule(w io.Writer, sch *TestSchedule) error {
	return schedio.Save(w, sch)
}

// LoadSchedule reads a serialized schedule and re-verifies it against the
// SOC it was produced for; tampered or mismatched files are rejected.
func LoadSchedule(r io.Reader, s *SOC) (*TestSchedule, error) {
	return schedio.Load(r, s)
}
