package resil

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually-advanced time source for Breaker tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	b := NewBreaker(threshold, cooldown)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b.SetClock(clk.now)
	return b, clk
}

// TestBreakerQuarantineAndHalfOpenReadmission is the acceptance-criteria
// lifecycle: K consecutive failures quarantine, cooldown leads to a single
// half-open probe, a successful probe re-admits fully.
func TestBreakerQuarantineAndHalfOpenReadmission(t *testing.T) {
	b, clk := newTestBreaker(3, time.Minute)

	if !b.Allow() || b.State() != BreakerClosed {
		t.Fatal("new breaker must start closed and admitting")
	}
	// Two failures, then a success: streak resets, still closed.
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed || !b.Allow() {
		t.Fatal("streak below threshold must stay closed")
	}
	// Third consecutive failure: quarantine.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after %d consecutive failures = %v, want open", 3, b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call before cooldown")
	}

	// Cooldown not yet elapsed: still rejecting.
	clk.advance(59 * time.Second)
	if b.Allow() {
		t.Fatal("open breaker admitted a call 1s before cooldown expiry")
	}

	// Cooldown elapsed: exactly one probe is admitted.
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker did not half-open after cooldown")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown Allow = %v, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second call while probe in flight")
	}

	// Failed probe: re-open for another full cooldown.
	b.Failure()
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatal("failed probe must re-open the breaker")
	}
	clk.advance(61 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker did not half-open after second cooldown")
	}

	// Successful probe: fully re-admitted.
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", b.State())
	}
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatal("re-closed breaker must admit freely")
		}
	}
	// And the failure streak restarted from zero.
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatal("recovery must reset the consecutive-failure streak")
	}
}

func TestBreakerStateStrings(t *testing.T) {
	for want, s := range map[string]BreakerState{
		"closed":    BreakerClosed,
		"open":      BreakerOpen,
		"half-open": BreakerHalfOpen,
		"unknown":   BreakerState(99),
	} {
		if got := s.String(); got != want {
			t.Errorf("BreakerState(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestBreakerThresholdFloor(t *testing.T) {
	b, _ := newTestBreaker(0, time.Minute)
	b.Failure()
	if b.State() != BreakerOpen {
		t.Error("threshold < 1 must behave as 1")
	}
}

func TestSemaphore(t *testing.T) {
	s := NewSemaphore(2)
	if s.Cap() != 2 || s.InUse() != 0 {
		t.Fatalf("fresh semaphore cap=%d inuse=%d", s.Cap(), s.InUse())
	}
	if !s.TryAcquire() || !s.TryAcquire() {
		t.Fatal("TryAcquire under capacity failed")
	}
	if s.TryAcquire() {
		t.Fatal("TryAcquire over capacity succeeded")
	}
	if s.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", s.InUse())
	}

	// Acquire blocks until a slot frees, and respects cancellation.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire on full semaphore = %v, want DeadlineExceeded", err)
	}
	s.Release()
	if err := s.Acquire(context.Background()); err != nil {
		t.Fatalf("Acquire with a free slot: %v", err)
	}

	s.Release()
	s.Release()
	defer func() {
		if recover() == nil {
			t.Error("unbalanced Release did not panic")
		}
	}()
	s.Release()
}

func TestSemaphoreCapFloor(t *testing.T) {
	if got := NewSemaphore(0).Cap(); got != 1 {
		t.Errorf("NewSemaphore(0).Cap() = %d, want 1", got)
	}
}

// TestBreakerTransitions counts every state change across a full
// open → half-open → re-open → half-open → close lifecycle.
func TestBreakerTransitions(t *testing.T) {
	b, clk := newTestBreaker(2, time.Minute)
	if got := b.Transitions(); got != 0 {
		t.Fatalf("fresh breaker Transitions = %d", got)
	}
	b.Failure()
	b.Success() // closed → closed: a success while closed is not a transition
	if got := b.Transitions(); got != 0 {
		t.Fatalf("Transitions after closed-state churn = %d", got)
	}
	b.Failure()
	b.Failure() // closed → open
	if got := b.Transitions(); got != 1 {
		t.Fatalf("Transitions after opening = %d, want 1", got)
	}
	clk.advance(time.Minute)
	b.Allow()   // open → half-open
	b.Failure() // half-open → open
	if got := b.Transitions(); got != 3 {
		t.Fatalf("Transitions after failed probe = %d, want 3", got)
	}
	clk.advance(time.Minute)
	b.Allow()   // open → half-open
	b.Success() // half-open → closed
	if got := b.Transitions(); got != 5 {
		t.Fatalf("Transitions after recovery = %d, want 5", got)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("State = %v, want closed", b.State())
	}
}
