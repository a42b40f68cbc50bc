package chaos

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// Test sites, registered once for the whole binary.
func init() {
	RegisterSites("test/a", "test/b", "test/prob", "test/hang", "test/delay")
}

// enable activates a plan and disables it on test cleanup.
func enable(t *testing.T, p Plan) *Active {
	t.Helper()
	a := Enable(p)
	t.Cleanup(a.Disable)
	return a
}

func TestInjectNoPlanIsFree(t *testing.T) {
	if err := Inject("test/a"); err != nil {
		t.Fatalf("Inject with no plan: %v", err)
	}
	if err := InjectContext(context.Background(), "test/a"); err != nil {
		t.Fatalf("InjectContext with no plan: %v", err)
	}
}

func TestErrorModeAndBookkeeping(t *testing.T) {
	a := enable(t, Plan{Rules: []Rule{{Site: "test/a", Mode: ModeError}}})
	err := Inject("test/a")
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Site != "test/a" {
		t.Fatalf("Inject = %v, want InjectedError at test/a", err)
	}
	if err := Inject("test/b"); err != nil {
		t.Errorf("unarmed site returned %v", err)
	}
	if got := a.Fired(); !reflect.DeepEqual(got, []string{"test/a"}) {
		t.Errorf("Fired() = %v, want [test/a]", got)
	}
	if a.Hits("test/b") != 1 || a.FireCount("test/b") != 0 {
		t.Errorf("test/b hits=%d fired=%d, want 1/0", a.Hits("test/b"), a.FireCount("test/b"))
	}
}

func TestAfterAndCount(t *testing.T) {
	a := enable(t, Plan{Rules: []Rule{{Site: "test/a", Mode: ModeError, After: 1, Count: 2}}})
	var errs int
	for i := 0; i < 5; i++ {
		if Inject("test/a") != nil {
			errs++
		}
	}
	if errs != 2 {
		t.Errorf("After=1 Count=2 fired %d times over 5 hits, want 2", errs)
	}
	if a.FireCount("test/a") != 2 {
		t.Errorf("FireCount = %d, want 2", a.FireCount("test/a"))
	}
}

func TestSeededProbabilityIsDeterministic(t *testing.T) {
	pattern := func(seed int64) string {
		a := Enable(Plan{Seed: seed, Rules: []Rule{{Site: "test/prob", Mode: ModeError, Prob: 0.5}}})
		defer a.Disable()
		var sb strings.Builder
		for i := 0; i < 32; i++ {
			if Inject("test/prob") != nil {
				sb.WriteByte('x')
			} else {
				sb.WriteByte('.')
			}
		}
		return sb.String()
	}
	p1, p2 := pattern(42), pattern(42)
	if p1 != p2 {
		t.Errorf("same seed produced different fire patterns:\n%s\n%s", p1, p2)
	}
	if !strings.Contains(p1, "x") || !strings.Contains(p1, ".") {
		t.Errorf("Prob=0.5 pattern %q should mix firing and passing", p1)
	}
	if p3 := pattern(7); p3 == p1 {
		t.Logf("seeds 42 and 7 coincide (%q); suspicious but not impossible", p3)
	}
}

func TestPanicMode(t *testing.T) {
	enable(t, Plan{Rules: []Rule{{Site: "test/a", Mode: ModePanic}}})
	defer func() {
		if recover() == nil {
			t.Error("ModePanic did not panic")
		}
	}()
	_ = Inject("test/a")
}

func TestHangRespectsContextAndDisable(t *testing.T) {
	a := enable(t, Plan{Rules: []Rule{{Site: "test/hang", Mode: ModeHang}}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := InjectContext(ctx, "test/hang"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hung InjectContext = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hang ignored the context deadline")
	}

	// A ctx-less Inject hang must release on Disable.
	released := make(chan error, 1)
	go func() { released <- Inject("test/hang") }()
	select {
	case err := <-released:
		t.Fatalf("ctx-less hang returned early: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	a.Disable()
	select {
	case err := <-released:
		if err != nil {
			t.Fatalf("released hang returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Disable did not release the hanging site")
	}
}

func TestDelayMode(t *testing.T) {
	enable(t, Plan{Rules: []Rule{{Site: "test/delay", Mode: ModeDelay, Delay: 20 * time.Millisecond}}})
	start := time.Now()
	if err := Inject("test/delay"); err != nil {
		t.Fatalf("delay returned %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("delay site returned after %v, want >= 20ms", d)
	}
}

func TestEnableValidation(t *testing.T) {
	mustPanic := func(name string, p Plan) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Enable did not panic", name)
			}
		}()
		Enable(p).Disable()
	}
	mustPanic("unknown site", Plan{Rules: []Rule{{Site: "test/nope", Mode: ModeError}}})
	mustPanic("bad mode", Plan{Rules: []Rule{{Site: "test/a", Mode: ModeOK}}})
	mustPanic("bad prob", Plan{Rules: []Rule{{Site: "test/a", Mode: ModeError, Prob: 2}}})
	mustPanic("duplicate rule", Plan{Rules: []Rule{
		{Site: "test/a", Mode: ModeError},
		{Site: "test/a", Mode: ModePanic},
	}})

	a := enable(t, Plan{})
	defer func() {
		if recover() == nil {
			t.Error("double Enable did not panic")
		}
	}()
	_ = a
	Enable(Plan{})
}

func TestSitesSorted(t *testing.T) {
	names := Sites()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Sites() = %v not sorted", names)
		}
	}
	found := false
	for _, n := range names {
		if n == "test/a" {
			found = true
		}
	}
	if !found {
		t.Errorf("Sites() = %v missing registered test/a", names)
	}
}

func TestModeStringsAndInjectedError(t *testing.T) {
	want := map[Mode]string{
		ModeOK:    "ok",
		ModeError: "error",
		ModePanic: "panic",
		ModeDelay: "delay",
		ModeHang:  "hang",
		Mode(99):  "chaos.Mode(99)",
	}
	for m, s := range want {
		if got := m.String(); got != s {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), got, s)
		}
	}
	err := &InjectedError{Site: "test/a"}
	if got := err.Error(); !strings.Contains(got, "test/a") {
		t.Errorf("InjectedError.Error() = %q, want the site name in it", got)
	}
}
