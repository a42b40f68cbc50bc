package sched

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/lb"
	"repro/internal/obs"
	"repro/internal/resil"
)

// DefaultBackend is the backend used when Params.Backend is empty: the
// paper's preferred-width heuristic swept over its (α, δ, slack) grid.
const DefaultBackend = "classic"

// Backend is one scheduling strategy. A backend produces its best schedule
// for the optimizer's SOC under the given parameters; the grid-swept paper
// heuristic ("classic"), the rectangle bin packer ("rectpack"), and the
// racing meta-backend ("portfolio") all implement it. Implementations must
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
// through.
func (o *Optimizer) ScheduleBackend(ctx context.Context, params Params) (*Schedule, error) {
	b, err := BackendByName(params.Backend)
	if err != nil {
		return nil, err
	}
	if reason, declined := BackendDeclines(b, params); declined {
		return nil, fmt.Errorf("%w: %s: %s", ErrBackendDeclined, b.Name(), reason)
	}
	ctx, span := obs.Start(ctx, "backend/"+b.Name())
	defer span.End()
	start := time.Now()
	sch, err := b.Schedule(ctx, o, params)
	obs.Backends.Observe(b.Name(), time.Since(start))
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
// growing swept over the (α, δ, insert-slack) grid, exactly SweepBest.
type classicBackend struct{}

func (classicBackend) Name() string { return "classic" }

func (classicBackend) Schedule(ctx context.Context, opt *Optimizer, params Params) (*Schedule, error) {
	if err := chaos.InjectContext(ctx, siteClassicSchedule); err != nil {
		return nil, err
	}
	return opt.SweepBestContext(ctx, params, nil, nil)
}

// Circuit-breaker defaults for portfolio racers: a backend is quarantined
// after DefaultBreakerThreshold consecutive failures or timeouts and is
// probed again (half-open) after DefaultBreakerCooldown.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 30 * time.Second
)

// BackendRaceStats is one backend's cumulative portfolio-race record,
// exposed on the service's /metrics endpoint.
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
	// Quarantined counts races it sat out entirely with an open breaker.
	// A benched backend re-raced by the degradation path is counted by
	// that race's outcome instead, so one portfolio call contributes at
	// most one counter per backend.
	Quarantined int64 `json:"quarantined"`
	// State is the breaker state ("closed", "open", "half-open"), or
	// "exempt" for classic, which is never quarantined.
	State string `json:"state"`
	// WinRate is Won/(Won+Lost) — the fraction of decided races this
	// backend's schedule won (0 when it never finished a race).
	WinRate float64 `json:"winRate"`
	// BreakerTransitions counts the backend's breaker state changes
	// (0 for the exempt classic backend).
	BreakerTransitions int64 `json:"breakerTransitions"`
}

// racerHealth is one backend's breaker plus its race record.
type racerHealth struct {
	breaker *resil.Breaker   // nil for classic: the baseline is never benched
	stats   BackendRaceStats // guarded by portfolioBackend.mu
}

// portfolioBackend races every other registered backend on the shared
// optimizer (bounded by params.Workers) and returns the shortest verified
// schedule. Each racer's result is re-verified before it may win, so a
// buggy backend can never poison the portfolio. When a verified schedule
// reaches the scheduling lower bound LB(W) the race is over — the shared
// context is cancelled and remaining racers stop early.
//
// Resilience: each racer runs in its own goroutine with panics contained
// and, when params.BackendTimeout is set, a per-racer deadline — a hung
// backend is abandoned in place and cannot delay the race beyond its
// deadline. A consecutive-failure circuit breaker per backend (classic
// exempt) benches repeat offenders for DefaultBreakerCooldown, after which
// one half-open probe decides re-admission; if every admitted racer fails,
// the portfolio degrades gracefully by racing the benched backends too,
// so it returns a schedule whenever any backend at all survives.
//
// The returned makespan is deterministic: it is never worse than the best
// single backend, and an early cancel only fires for LB(W)-optimal
// schedules, which no racer can beat. The exact schedule bytes are
// deterministic too when the race runs sequentially (Workers = 1, as the
// corpus replayer pins): equal-makespan ties then break toward the
// alphabetically first backend. With parallel racers an LB(W)-optimal
// finisher may cancel an equally-good rival mid-run, so which optimal
// layout is returned can vary run to run.
type portfolioBackend struct {
	mu     sync.Mutex
	health map[string]*racerHealth // guarded by mu
}

// thePortfolio is the registered portfolio instance; its breaker state is
// process-wide, like the backend registry itself.
var thePortfolio = &portfolioBackend{health: make(map[string]*racerHealth)}

// PortfolioStats returns every raced backend's cumulative race record,
// keyed by backend name. Backends that never raced are absent.
func PortfolioStats() map[string]BackendRaceStats {
	thePortfolio.mu.Lock()
	defer thePortfolio.mu.Unlock()
	out := make(map[string]BackendRaceStats, len(thePortfolio.health))
	for name, h := range thePortfolio.health {
		s := h.stats
		if h.breaker == nil {
			s.State = "exempt"
		} else {
			s.State = h.breaker.State().String()
			s.BreakerTransitions = h.breaker.Transitions()
		}
		if decided := s.Won + s.Lost; decided > 0 {
			s.WinRate = float64(s.Won) / float64(decided)
		}
		out[name] = s
	}
	return out
}

// ResetPortfolioHealth discards all breaker state and race counters
// (tests only — chaos plans would otherwise leak quarantines across tests).
func ResetPortfolioHealth() {
	thePortfolio.mu.Lock()
	defer thePortfolio.mu.Unlock()
	thePortfolio.health = make(map[string]*racerHealth)
}

func (pb *portfolioBackend) Name() string { return "portfolio" }

// healthFor returns the backend's health record, creating it on first use.
func (pb *portfolioBackend) healthFor(name string) *racerHealth {
	pb.mu.Lock()
	defer pb.mu.Unlock()
	h, ok := pb.health[name]
	if !ok {
		h = &racerHealth{}
		if name != DefaultBackend {
			h.breaker = resil.NewBreaker(DefaultBreakerThreshold, DefaultBreakerCooldown)
		}
		pb.health[name] = h
	}
	return h
}

// admit splits racers by breaker verdict. Classic (nil breaker) is always
// admitted. Quarantine counters are not bumped here: whether a benched
// racer actually sits the race out is only known once the degradation
// path has (or has not) re-raced it — Schedule calls markQuarantined for
// the racers that truly never ran.
func (pb *portfolioBackend) admit(racers []Backend) (admitted, benched []Backend) {
	for _, b := range racers {
		h := pb.healthFor(b.Name())
		if h.breaker == nil || h.breaker.Allow() {
			admitted = append(admitted, b)
			continue
		}
		benched = append(benched, b)
	}
	return admitted, benched
}

// markQuarantined bumps the quarantine counter for racers that sat out a
// whole portfolio call behind an open breaker. Every racer already has a
// health record (admit created it).
func (pb *portfolioBackend) markQuarantined(benched []Backend) {
	if len(benched) == 0 {
		return
	}
	pb.mu.Lock()
	defer pb.mu.Unlock()
	for _, b := range benched {
		pb.health[b.Name()].stats.Quarantined++
	}
}

// observe feeds one racer's outcome to its breaker and counters. Outcomes
// after the race was already decided (raceCtx cancelled) are not the
// backend's fault and are ignored.
func (pb *portfolioBackend) observe(raceCtx context.Context, name string, sch *Schedule, err error) {
	if raceCtx.Err() != nil && sch == nil {
		return
	}
	h := pb.healthFor(name)
	pb.mu.Lock()
	switch {
	case sch != nil:
		// Won/Lost is recorded once the race is decided; a finish always
		// closes the breaker.
	case errors.Is(err, context.DeadlineExceeded):
		h.stats.TimedOut++
	default:
		h.stats.Failed++
	}
	pb.mu.Unlock()
	if h.breaker != nil {
		if sch != nil {
			h.breaker.Success()
		} else {
			h.breaker.Failure()
		}
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
		h := pb.health[racers[i].Name()]
		if i == best {
			h.stats.Won++
		} else {
			h.stats.Lost++
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
		sctx, span := obs.Start(rctx, "racer/"+b.Name())
		start := time.Now()
		var r rres
		defer func() {
			if p := recover(); p != nil {
				r = rres{nil, fmt.Errorf("sched: backend %s panicked: %v", b.Name(), p)}
			}
			obs.Backends.Observe(b.Name(), time.Since(start))
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

// race runs one heat over the given racers and returns the best verified
// schedule plus the first failure (for the all-failed error message).
func (pb *portfolioBackend) race(ctx context.Context, opt *Optimizer, params Params, racers []Backend, floor int64) (*Schedule, error) {
	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]*Schedule, len(racers))
	errs := make([]error, len(racers))
	ForEachContext(raceCtx, params.Workers, len(racers), func(i int) {
		sch, err := runRacer(raceCtx, racers[i], opt, params)
		pb.observe(raceCtx, racers[i].Name(), sch, err)
		results[i], errs[i] = sch, err
		if sch != nil && floor > 0 && sch.Makespan <= floor {
			cancel() // a verified optimum: no racer can do better
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
		//soclint:allow backendreg terminal error scan; the race is already over
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("sched: portfolio: every backend failed; %s: %w", racers[i].Name(), err)
			}
		}
		return nil, nil
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
			h := pb.healthFor(name)
			pb.mu.Lock()
			h.stats.Declined++
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
	admitted, benched := pb.admit(racers)
	ctx, span := obs.Start(ctx, "portfolio/race")
	defer span.End()
	span.SetAttr("racers", len(admitted))
	span.SetAttr("benched", len(benched))
	span.SetAttr("declined", declined)
	span.SetAttr("floor", floor)
	best, raceErr := pb.race(ctx, opt, params, admitted, floor)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if best == nil && len(benched) > 0 {
		// Graceful degradation: every admitted racer failed, so the benched
		// ones are the only hope — better a quarantined backend's verified
		// schedule than no schedule. A finisher here also closes its breaker,
		// and the re-raced backends are counted by this race's outcome, not
		// as quarantined.
		if best, raceErr = pb.race(ctx, opt, params, benched, floor); best != nil {
			return best, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	} else {
		pb.markQuarantined(benched)
	}
	if best == nil {
		if raceErr != nil {
			return nil, raceErr
		}
		return nil, fmt.Errorf("sched: portfolio: race cancelled before any backend finished")
	}
	return best, nil
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
