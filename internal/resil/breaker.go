// Package resil holds the small, dependency-free resilience primitives the
// scheduler and service share: a consecutive-failure circuit breaker
// (Breaker) and counting-semaphore admission control (Semaphore). The
// portfolio backend uses Breaker to quarantine misbehaving racers;
// socserved uses Semaphore to shed load with 429s. Breaker's clock is
// injectable, so the chaos suite can script exact failure/recovery
// timelines.
package resil

import (
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is the circuit state of a Breaker.
type BreakerState int

const (
	// BreakerClosed admits all calls (the healthy state).
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects all calls until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits a single probe call; its outcome decides
	// whether the breaker re-closes or re-opens.
	BreakerHalfOpen
)

// String names the state for logs and metrics.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is a consecutive-failure circuit breaker. It opens after
// Threshold consecutive Failure calls, stays open for Cooldown, then
// half-opens to admit exactly one probe: the probe's Success re-closes the
// breaker, its Failure re-opens it for another cooldown. Any Success fully
// resets the failure streak. The zero value is not usable; call NewBreaker.
type Breaker struct {
	mu          sync.Mutex
	threshold   int              // consecutive failures that open the breaker
	cooldown    time.Duration    // open duration before half-open probing
	now         func() time.Time // injectable clock for tests
	transitions atomic.Int64     // cumulative state changes, for /v1/backends

	state    BreakerState // guarded by mu
	failures int          // guarded by mu; consecutive failures seen
	openedAt time.Time    // guarded by mu; when the breaker last opened
	probing  bool         // guarded by mu; a half-open probe is in flight
}

// NewBreaker returns a closed breaker that opens after threshold
// consecutive failures and half-opens after cooldown. A threshold < 1 is
// treated as 1; a cooldown <= 0 half-opens immediately on the next Allow.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// SetClock replaces the breaker's time source (tests only).
func (b *Breaker) SetClock(now func() time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
}

// Allow reports whether a call may proceed. In the open state it returns
// false until the cooldown has elapsed, then transitions to half-open and
// admits exactly one probe; further Allow calls are rejected until that
// probe reports Success or Failure.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.transitions.Add(1)
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Success records a successful call: the failure streak resets and the
// breaker closes regardless of its previous state.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerClosed {
		b.transitions.Add(1)
	}
	b.state = BreakerClosed
	b.failures = 0
	b.probing = false
}

// Failure records a failed call. In the closed state it opens the breaker
// once the consecutive-failure streak reaches the threshold; in the
// half-open state the failed probe re-opens it for another cooldown.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	switch b.state {
	case BreakerClosed:
		if b.failures >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = b.now()
			b.transitions.Add(1)
		}
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.probing = false
		b.transitions.Add(1)
	}
}

// Transitions returns the cumulative number of state changes the breaker
// has made (closed→open, open→half-open, half-open→open/closed) — the
// "breaker flips" counter surfaced per backend on /v1/backends.
func (b *Breaker) Transitions() int64 {
	return b.transitions.Load()
}

// State returns the current circuit state. An open breaker whose cooldown
// has elapsed still reports BreakerOpen until Allow observes the expiry.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
