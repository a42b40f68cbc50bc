package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/chaos"
	"repro/internal/lb"
	"repro/internal/obs"
)

// DefaultBackend is the backend used when Params.Backend is empty: the
// paper's preferred-width heuristic swept over its (α, δ, slack) grid.
const DefaultBackend = "classic"

// Backend is one scheduling strategy. A backend produces its best schedule
// for the optimizer's SOC under the given parameters; the grid-swept paper
// heuristic ("classic"), the rectangle bin packer in its three seed sets
// ("rectpack", "preempt-rectpack" and "anneal"), and the racing
// meta-backend ("portfolio") all implement it. Implementations must
// be safe for concurrent use: Schedule may be called from many goroutines
// with distinct optimizers, and the portfolio backend races backends in
// parallel against one shared optimizer.
type Backend interface {
	// Name returns the backend's registry name (lowercase, stable).
	Name() string
	// Schedule computes the backend's best schedule. Implementations stop
	// early and return ctx's error once ctx is done; a nil ctx behaves
	// like context.Background(). The returned schedule must satisfy every
	// invariant CheckInvariants enforces.
	Schedule(ctx context.Context, opt *Optimizer, params Params) (*Schedule, error)
}

// Decliner is an optional Backend capability: a backend that cannot
// honestly handle a parameter regime declines it up front instead of
// silently returning a degraded schedule (rectpack, for example, declines
// non-zero preemption budgets rather than ignoring them). The portfolio
// skips decliners instead of racing them blind, and direct dispatch
// through ScheduleBackend rejects the request with ErrBackendDeclined.
// Backends without this capability never decline.
type Decliner interface {
	// Declines reports whether the backend declines params; when it does,
	// reason says why in one human-readable sentence. Declines must be
	// cheap, deterministic, and must not inspect the SOC — it is a
	// capability statement about the parameters alone.
	Declines(params Params) (reason string, declined bool)
}

// BackendDeclines reports b's decline verdict for params: the Decliner
// verdict when b has the capability, never-declines otherwise.
func BackendDeclines(b Backend, params Params) (reason string, declined bool) {
	if d, ok := b.(Decliner); ok {
		return d.Declines(params)
	}
	return "", false
}

// ErrUnknownBackend is wrapped by every unknown-backend-name error, so
// callers (the HTTP service maps it to 422) test with errors.Is.
var ErrUnknownBackend = errors.New("sched: unknown backend")

// ErrBackendDeclined is wrapped by every directly-dispatched request a
// backend declined (see Decliner); the HTTP service maps it to 422. The
// portfolio never returns it for one declining racer — it races the
// backends that accept instead.
var ErrBackendDeclined = errors.New("sched: backend declined parameters")

var (
	backendMu  sync.RWMutex
	backendsBy = make(map[string]Backend) // guarded by backendMu
)

// RegisterBackend adds a backend to the global registry. It panics on an
// empty name or a duplicate registration (programmer error, like
// database/sql drivers). Packages register themselves in init; importing
// repro/internal/rectpack, for example, makes "rectpack" available.
func RegisterBackend(b Backend) {
	name := b.Name()
	if name == "" {
		panic("sched: RegisterBackend with empty name")
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backendsBy[name]; dup {
		panic(fmt.Sprintf("sched: RegisterBackend called twice for %q", name))
	}
	backendsBy[name] = b
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	names := make([]string, 0, len(backendsBy))
	for name := range backendsBy {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// IsDefaultBackend reports whether a backend name resolves to the default
// classic backend — the only backend with a distinct single-run mode. The
// dispatch layers (repro API, service, corpus) share this predicate so
// they can never disagree about which requests take the single-run path.
func IsDefaultBackend(name string) bool {
	return name == "" || name == DefaultBackend
}

// BackendByName resolves a backend name; "" means DefaultBackend. Unknown
// names return an error wrapping ErrUnknownBackend that lists what is
// registered.
func BackendByName(name string) (Backend, error) {
	if name == "" {
		name = DefaultBackend
	}
	backendMu.RLock()
	b, ok := backendsBy[name]
	backendMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (registered: %s)", ErrUnknownBackend, name, strings.Join(Backends(), ", "))
	}
	return b, nil
}

// ScheduleBackend resolves params.Backend ("" = DefaultBackend) and runs
// it. This is the single dispatch point every layer above the scheduler
// (the repro API, the CLIs, the HTTP service, the corpus replayer) goes
// through. A budget for a core the SOC does not define fails with
// *UnknownCoreError before the backend may decline.
func (o *Optimizer) ScheduleBackend(ctx context.Context, params Params) (*Schedule, error) {
	b, err := BackendByName(params.Backend)
	if err != nil {
		return nil, err
	}
	if err := o.unknownBudget(params); err != nil {
		return nil, err
	}
	if reason, declined := BackendDeclines(b, params); declined {
		return nil, fmt.Errorf("%w: %s: %s", ErrBackendDeclined, b.Name(), reason)
	}
	ctx, span := obs.Start(ctx, "backend/"+b.Name())
	defer span.End()
	sch, err := b.Schedule(ctx, o, params)
	if sch != nil {
		span.SetAttr("makespan", sch.Makespan)
	}
	if err != nil {
		span.SetAttr("error", err.Error())
	}
	return sch, err
}

// Failpoint sites compiled into this package's hot paths; the chaos suite
// arms them to prove the portfolio survives a faulty or stalled backend.
const (
	siteClassicSchedule = "sched/classic/schedule"
	sitePortfolioRacer  = "sched/portfolio/racer"
)

// classicBackend is the paper's heuristic: preferred-width rectangle
// growing swept over the (α, δ, insert-slack) grid, exactly SweepBest. On
// the span ctx carries it records the sweep's work: its (α, δ)
// representatives (reps), the runs it started (runs), skipped (skipped)
// and the cutoff stopped (cut), and their Update events (events).
type classicBackend struct{}

func (classicBackend) Name() string { return "classic" }

func (classicBackend) Schedule(ctx context.Context, opt *Optimizer, params Params) (*Schedule, error) {
	if err := chaos.InjectContext(ctx, siteClassicSchedule); err != nil {
		return nil, err
	}
	best, n, err := opt.sweep(ctx, params, nil, nil)
	if sp := obs.FromContext(ctx); sp != nil { // boxing the counts allocates
		sp.SetAttr("reps", n.reps)
		sp.SetAttr("runs", n.runs)
		sp.SetAttr("skipped", n.skipped)
		sp.SetAttr("cut", n.cut)
		sp.SetAttr("events", n.events)
	}
	if err != nil {
		return nil, err
	}
	return best.assemble(opt)
}

// BackendRaceStats is one backend's cumulative portfolio-race record,
// exposed on the service's /metrics and /v1/backends endpoints. One
// portfolio call adds at most one to a backend's counters.
type BackendRaceStats struct {
	// Won counts races this backend's schedule won.
	Won int64 `json:"won"`
	// Lost counts races it finished with a valid schedule that lost.
	Lost int64 `json:"lost"`
	// Failed counts races it exited with an error (including panics).
	Failed int64 `json:"failed"`
	// TimedOut counts races it exceeded BackendTimeout.
	TimedOut int64 `json:"timedOut"`
	// Declined counts races it was skipped from after declining the
	// parameters (see Decliner).
	Declined int64 `json:"declined"`
	// WinRate is Won/(Won+Lost) — the fraction of decided races this
	// backend's schedule won (0 when it never finished a race).
	WinRate float64 `json:"winRate"`
}

// portfolioBackend races every other registered backend that accepts the
// parameters on the shared optimizer (bounded by params.Workers) and
// returns the shortest verified schedule. Each racer's result is
// re-verified before it may win, so a buggy backend can never poison the
// portfolio. When a verified schedule reaches the scheduling lower bound
// LB(W), no later racer in race order can win: those racers are cancelled
// or never started, while earlier ones run on and keep their tie-break.
//
// Resilience: each racer runs in its own goroutine with panics contained
// and, when params.BackendTimeout is set, a per-racer deadline — a hung
// backend is abandoned in place and cannot delay the race beyond its
// deadline. The race returns a schedule whenever any racer survives.
// Every call races every backend that accepts the parameters: the race
// records only observe, so no earlier race decides who runs.
//
// The returned schedule is the same for any Workers: it is never worse
// than the best single backend, an early cancel only fires for
// LB(W)-optimal schedules, which no racer can beat, and equal-makespan
// ties break toward the alphabetically first backend. Only a
// BackendTimeout makes the answer timing-dependent, by design; it is part
// of the cache key.
type portfolioBackend struct {
	mu    sync.Mutex
	stats map[string]*BackendRaceStats // guarded by mu
}

// thePortfolio is the registered portfolio instance; its race records are
// process-wide, like the backend registry itself.
var thePortfolio = &portfolioBackend{stats: make(map[string]*BackendRaceStats)}

// PortfolioStats returns every raced backend's cumulative race record,
// keyed by backend name. Backends that never raced are absent.
func PortfolioStats() map[string]BackendRaceStats {
	thePortfolio.mu.Lock()
	defer thePortfolio.mu.Unlock()
	out := make(map[string]BackendRaceStats, len(thePortfolio.stats))
	for name, st := range thePortfolio.stats {
		s := *st
		if decided := s.Won + s.Lost; decided > 0 {
			s.WinRate = float64(s.Won) / float64(decided)
		}
		out[name] = s
	}
	return out
}

// ResetPortfolioHealth discards every backend's race record, so a test or
// benchmark run counts from zero. The records never decide who races, so
// resetting them changes no schedule.
func ResetPortfolioHealth() {
	thePortfolio.mu.Lock()
	defer thePortfolio.mu.Unlock()
	thePortfolio.stats = make(map[string]*BackendRaceStats)
}

func (pb *portfolioBackend) Name() string { return "portfolio" }

// recordLocked returns the backend's race record, creating it on first use.
func (pb *portfolioBackend) recordLocked(name string) *BackendRaceStats {
	st, ok := pb.stats[name]
	if !ok {
		st = &BackendRaceStats{}
		pb.stats[name] = st
	}
	return st
}

// observe counts one racer's failure or timeout. A finish is counted as
// Won or Lost once the race is decided, and an outcome after the racer's
// own context was cancelled (an earlier racer reached the floor, or the
// caller gave up) is not the backend's fault and is ignored.
func (pb *portfolioBackend) observe(racerCtx context.Context, name string, sch *Schedule, err error) {
	if sch != nil || racerCtx.Err() != nil {
		return
	}
	pb.mu.Lock()
	defer pb.mu.Unlock()
	if st := pb.recordLocked(name); errors.Is(err, context.DeadlineExceeded) {
		st.TimedOut++
	} else {
		st.Failed++
	}
}

// recordOutcome bumps Won for the race winner and Lost for every other
// racer that finished with a valid schedule.
func (pb *portfolioBackend) recordOutcome(racers []Backend, results []*Schedule, best int) {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	for i, sch := range results {
		if sch == nil {
			continue
		}
		st := pb.recordLocked(racers[i].Name())
		if i == best {
			st.Won++
		} else {
			st.Lost++
		}
	}
}

// runRacer runs one backend under the race context plus its per-racer
// deadline, containing panics and abandoning (not joining) a racer that
// ignores cancellation — a hung backend costs its goroutine, never the
// race. The returned schedule is verified; err is non-nil iff sch is nil.
func runRacer(raceCtx context.Context, b Backend, opt *Optimizer, params Params) (*Schedule, error) {
	rctx := raceCtx
	if params.BackendTimeout > 0 {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(raceCtx, params.BackendTimeout)
		defer cancel()
	}
	type rres struct {
		sch *Schedule
		err error
	}
	ch := make(chan rres, 1) // buffered: an abandoned racer's send never blocks
	go func() {
		sctx, span := obs.Start(rctx, "backend/"+b.Name())
		var r rres
		defer func() {
			if p := recover(); p != nil {
				r = rres{nil, fmt.Errorf("sched: backend %s panicked: %v", b.Name(), p)}
			}
			if r.err != nil {
				span.SetAttr("error", r.err.Error())
			} else if r.sch != nil {
				span.SetAttr("makespan", r.sch.Makespan)
			}
			span.End()
			ch <- r
		}()
		if err := chaos.InjectContext(sctx, sitePortfolioRacer); err != nil {
			r = rres{nil, err}
			return
		}
		p := params
		p.Backend = b.Name()
		sch, err := b.Schedule(sctx, opt, p)
		if err == nil {
			err = opt.Verify(sch)
		}
		if err != nil {
			sch = nil // only verified schedules may win
		}
		r = rres{sch, err}
	}()
	select {
	case r := <-ch:
		return r.sch, r.err
	case <-rctx.Done():
		return nil, rctx.Err()
	}
}

// race runs every racer and returns the best verified schedule, or an
// error naming the first racer's failure when none finished. Each racer
// runs under its own context. A racer that reaches the floor cancels only
// the racers after it in race order, and a cancelled racer is not started,
// so the racers before it run to completion: the winner is the first
// racer at the floor, or else the shortest with ties to the first — the
// Workers = 1 answer for any worker count.
func (pb *portfolioBackend) race(ctx context.Context, opt *Optimizer, params Params, racers []Backend, floor int64) (*Schedule, error) {
	ctxs := make([]context.Context, len(racers))
	cancels := make([]context.CancelFunc, len(racers))
	for i := range racers {
		ctxs[i], cancels[i] = context.WithCancel(ctx)
		defer cancels[i]()
	}
	results := make([]*Schedule, len(racers))
	errs := make([]error, len(racers))
	ForEachContext(ctx, params.Workers, len(racers), func(i int) {
		if ctxs[i].Err() != nil {
			return // an earlier racer reached the floor
		}
		sch, err := runRacer(ctxs[i], racers[i], opt, params)
		pb.observe(ctxs[i], racers[i].Name(), sch, err)
		results[i], errs[i] = sch, err
		if sch != nil && floor > 0 && sch.Makespan <= floor {
			// A verified optimum: no later racer can win.
			for _, cancel := range cancels[i+1:] {
				cancel()
			}
		}
	})
	best := -1
	for i, sch := range results {
		if sch == nil {
			continue
		}
		if best < 0 || sch.Makespan < results[best].Makespan {
			best = i
		}
	}
	if best < 0 {
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("sched: portfolio: every backend failed; %s: %w", racers[i].Name(), err)
			}
		}
		return nil, errors.New("sched: portfolio: race cancelled before any backend finished")
	}
	pb.recordOutcome(racers, results, best)
	return results[best], nil
}

func (pb *portfolioBackend) Schedule(ctx context.Context, opt *Optimizer, params Params) (*Schedule, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	names := Backends()
	racers := make([]Backend, 0, len(names))
	declined := 0
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if name == pb.Name() {
			continue
		}
		b, err := BackendByName(name)
		if err != nil {
			return nil, err
		}
		if _, skip := BackendDeclines(b, params); skip {
			// Honest capability reporting: a decliner is skipped, never
			// raced blind — its schedule would silently ignore the regime.
			pb.mu.Lock()
			pb.recordLocked(name).Declined++
			pb.mu.Unlock()
			declined++
			continue
		}
		racers = append(racers, b)
	}
	if len(racers) == 0 {
		if declined > 0 {
			return nil, fmt.Errorf("sched: portfolio: every backend declined the parameters")
		}
		return nil, fmt.Errorf("sched: portfolio has no backends to race")
	}
	floor := optimalityFloor(opt, params)
	ctx, span := obs.Start(ctx, "portfolio/race")
	defer span.End()
	span.SetAttr("racers", len(racers))
	span.SetAttr("declined", declined)
	span.SetAttr("floor", floor)
	best, err := pb.race(ctx, opt, params, racers, floor)
	if ctxErr := ctx.Err(); ctxErr != nil {
		return nil, ctxErr
	}
	return best, err
}

// optimalityFloor returns the scheduling lower bound LB(W) (lb.FromSets)
// over the optimizer's cached Pareto sets, or 0 when the parameters are
// out of the cache's range (the racers will surface the real error).
func optimalityFloor(opt *Optimizer, params Params) int64 {
	params = params.Defaults()
	if params.MaxWidth > opt.maxWidth {
		return 0
	}
	b, err := lb.FromSets(opt.sets, params.TAMWidth, params.MaxWidth)
	if err != nil {
		return 0
	}
	return b.Value()
}

func init() {
	RegisterBackend(classicBackend{})
	RegisterBackend(thePortfolio)
	chaos.RegisterSites(siteClassicSchedule, sitePortfolioRacer)
}
