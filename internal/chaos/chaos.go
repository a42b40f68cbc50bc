// Package chaos is the repository's deterministic fault-injection harness.
// Production hot paths compile in named failpoints — chaos.Inject(name)
// calls that are free no-ops until a test activates a Plan — and tests
// drive them with seeded plans that make a site return an error, panic,
// stall, or hang. The chaos suite at the repo root (chaos_test.go) replays
// the golden corpus under such plans to prove the portfolio and the
// service degrade gracefully instead of wedging.
//
// Discipline (machine-checked by the soclint failpoint analyzer):
//
//   - Inject sites live only in non-test files: the instrumentation is part
//     of the production code under test, never of the test itself.
//   - Site names at Inject call sites are compile-time string constants and
//     are registered from the instrumented package's init via
//     RegisterSites, so the set of failpoints is statically enumerable and
//     Enable can reject a plan naming a site that does not exist.
//
// This package imports nothing from the rest of the repository except the
// leaf telemetry package obs (fired failpoints open a "chaos/<site>" span
// so injected faults are visible in traces) — the packages it instruments
// (sched, rectpack, service) import it, so any other import back would
// cycle.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Mode is what a firing failpoint does to its caller.
type Mode int

const (
	// ModeOK passes through: the site behaves normally. It is the zero
	// value.
	ModeOK Mode = iota
	// ModeError makes the site return an *InjectedError.
	ModeError
	// ModePanic makes the site panic.
	ModePanic
	// ModeDelay stalls the site for the rule's Delay, then passes through.
	ModeDelay
	// ModeHang blocks the site until the plan is disabled (or, for
	// InjectContext sites, until the caller's context is done).
	ModeHang
)

// String names the mode for logs and errors.
func (m Mode) String() string {
	switch m {
	case ModeOK:
		return "ok"
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeDelay:
		return "delay"
	case ModeHang:
		return "hang"
	}
	return fmt.Sprintf("chaos.Mode(%d)", int(m))
}

// InjectedError is the error a ModeError failpoint returns. It models a
// recoverable fault: the suite checks that no cache stores it and that a
// portfolio race still returns a schedule while any racer survives it.
type InjectedError struct {
	// Site is the failpoint that fired.
	Site string
}

func (e *InjectedError) Error() string { return "chaos: injected failure at " + e.Site }

// Rule makes one failpoint fire.
type Rule struct {
	// Site is the registered failpoint name this rule arms.
	Site string
	// Mode is what happens when the rule fires (must not be ModeOK).
	Mode Mode
	// Delay is the stall duration for ModeDelay.
	Delay time.Duration
	// Prob is the per-hit firing probability in (0, 1]; 0 means 1 (always
	// fire). Draws come from the plan's seeded generator, so a given seed
	// and hit order fire identically on every run.
	Prob float64
	// After skips the first After hits of the site before firing.
	After int
	// Count caps how many times the rule fires (0 = unlimited).
	Count int
}

// Plan is a seeded set of fault rules, activated with Enable.
type Plan struct {
	// Seed seeds the probability draws for rules with Prob < 1. Plans with
	// only always-fire rules are deterministic regardless of Seed.
	Seed int64
	// Rules arm failpoints; at most one rule per site.
	Rules []Rule
}

// Active is an enabled plan: the handle to disable it and to inspect what
// fired. At most one plan is active at a time, process-wide.
type Active struct {
	mu    sync.Mutex
	rng   *rand.Rand // guarded by mu
	rules map[string]*armedRule
	hits  map[string]int // guarded by mu; every Inject per site
	fired map[string]int // guarded by mu; rule firings per site
	done  chan struct{}  // closed by Disable; unblocks hangs and delays
}

// armedRule is one rule plus its remaining-fire budget.
type armedRule struct {
	rule  Rule
	fired int // guarded by Active.mu
}

// active is the process-wide enabled plan (nil when chaos is off). Inject
// is a single atomic load on the disabled path, cheap enough for hot paths.
var active atomic.Pointer[Active]

var (
	sitesMu sync.Mutex
	sites   = make(map[string]bool) // guarded by sitesMu
)

// RegisterSites declares failpoint names. Instrumented packages call it
// from init with the same constants their Inject sites use, making the
// failpoint inventory available to Enable's validation and to tests that
// assert every site fired.
func RegisterSites(names ...string) {
	sitesMu.Lock()
	defer sitesMu.Unlock()
	for _, name := range names {
		if name == "" {
			panic("chaos: RegisterSites with empty name")
		}
		sites[name] = true
	}
}

// Sites returns every registered failpoint name, sorted.
func Sites() []string {
	sitesMu.Lock()
	defer sitesMu.Unlock()
	out := make([]string, 0, len(sites))
	for name := range sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// registered reports whether a site name was declared.
func registered(name string) bool {
	sitesMu.Lock()
	defer sitesMu.Unlock()
	return sites[name]
}

// Enable validates and activates a plan, returning the handle to disable
// it. It panics on an invalid plan (unknown site, bad mode, duplicate
// rule) or when another plan is already active — both are test-author
// errors, not runtime conditions.
func Enable(p Plan) *Active {
	a := &Active{
		rng:   rand.New(rand.NewSource(p.Seed)),
		rules: make(map[string]*armedRule, len(p.Rules)),
		hits:  make(map[string]int),
		fired: make(map[string]int),
		done:  make(chan struct{}),
	}
	for _, r := range p.Rules {
		if !registered(r.Site) {
			panic(fmt.Sprintf("chaos: plan rule for unregistered site %q (registered: %v)", r.Site, Sites()))
		}
		if r.Mode <= ModeOK || r.Mode > ModeHang {
			panic(fmt.Sprintf("chaos: plan rule for %q has invalid mode %v", r.Site, r.Mode))
		}
		if r.Prob < 0 || r.Prob > 1 {
			panic(fmt.Sprintf("chaos: plan rule for %q has probability %v outside [0,1]", r.Site, r.Prob))
		}
		if _, dup := a.rules[r.Site]; dup {
			panic(fmt.Sprintf("chaos: plan has two rules for site %q", r.Site))
		}
		a.rules[r.Site] = &armedRule{rule: r}
	}
	if !active.CompareAndSwap(nil, a) {
		panic("chaos: a plan is already active; Disable it first")
	}
	return a
}

// Disable deactivates the plan and unblocks every hanging or delayed
// site. Disabling twice is a no-op.
func (a *Active) Disable() {
	if active.CompareAndSwap(a, nil) {
		close(a.done)
	}
}

// Fired returns the sites whose rules fired at least once, sorted.
func (a *Active) Fired() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.fired))
	for name := range a.fired {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Hits returns how many times the site was reached (fired or not).
func (a *Active) Hits(site string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hits[site]
}

// FireCount returns how many times the site's rule fired.
func (a *Active) FireCount(site string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.fired[site]
}

// Inject is a failpoint site without a context: free when no plan is
// active, otherwise subject to the active plan's rule for name. ModeHang
// blocks until the plan is disabled. Use InjectContext at sites that have
// a context so hangs and delays respect cancellation.
func Inject(name string) error {
	a := active.Load()
	if a == nil {
		return nil
	}
	return a.hit(nil, name)
}

// InjectContext is Inject for context-bearing sites: ModeDelay and
// ModeHang additionally unblock when ctx is done, returning ctx's error —
// the injected stall then surfaces exactly like any other missed deadline.
func InjectContext(ctx context.Context, name string) error {
	a := active.Load()
	if a == nil {
		return nil
	}
	return a.hit(ctx, name)
}

// hit applies the plan's rule for the site, if any.
func (a *Active) hit(ctx context.Context, name string) error {
	a.mu.Lock()
	a.hits[name]++
	ar, ok := a.rules[name]
	if !ok {
		a.mu.Unlock()
		return nil
	}
	r := ar.rule
	if a.hits[name] <= r.After ||
		(r.Count > 0 && ar.fired >= r.Count) ||
		(r.Prob > 0 && r.Prob < 1 && a.rng.Float64() >= r.Prob) {
		a.mu.Unlock()
		return nil
	}
	ar.fired++
	a.fired[name]++
	a.mu.Unlock()

	// The fault fires: record it on the request trace, if any.
	_, span := obs.Start(ctx, "chaos/"+name)
	span.SetAttr("mode", r.Mode.String())
	defer span.End()

	switch r.Mode {
	case ModeError:
		return &InjectedError{Site: name}
	case ModePanic:
		panic(fmt.Sprintf("chaos: injected panic at %s", name))
	case ModeDelay:
		t := time.NewTimer(r.Delay)
		defer t.Stop()
		if ctx == nil {
			select {
			case <-t.C:
			case <-a.done:
			}
			return nil
		}
		select {
		case <-t.C:
			return nil
		case <-a.done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	case ModeHang:
		if ctx == nil {
			<-a.done
			return nil
		}
		select {
		case <-a.done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}
