package repro_test

// The chaos suite: corpus scenarios replayed under seeded fault plans.
// Every plan kills, slows, or hangs a strict subset of the scheduling
// backends and asserts the portfolio still returns a valid schedule
// (sched.CheckInvariants) with deterministic bytes — byte-identical to
// the frozen golden whenever classic survives, byte-identical to the
// surviving backend's chaos-free replay otherwise. A final test arms
// every registered failpoint and proves each one fires. CI runs this
// file (and every other *Chaos* test) under -race in a dedicated step:
//
//	go test -race -run Chaos ./...

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/corpus"
	"repro/internal/rectpack"
	"repro/internal/sched"
	"repro/internal/schedio"
	"repro/internal/service"
)

// Failpoint sites armed by this suite; they must match the constants
// compiled into the instrumented packages (chaos.Enable panics on a name
// no package registered, so a drifted string cannot silently no-op).
const (
	chaosSiteClassic  = "sched/classic/schedule"
	chaosSiteRacer    = "sched/portfolio/racer"
	chaosSiteRectpack = "rectpack/schedule"
	chaosSitePreempt  = "rectpack/preempt/schedule"
	chaosSiteAnneal   = "anneal/schedule"
	chaosSiteService  = "service/schedule"
	chaosSiteJobsRun  = "service/jobs/run"
	chaosSiteRegistry = "service/registry/build"
)

// killSearchBackends are the chaos rules that fail every search backend
// (rectpack, preempt-rectpack, anneal), leaving classic the only live
// racer. Equal-makespan ties break alphabetically — "anneal" sorts before
// "classic" — so any test expecting classic's golden bytes must kill all
// three, not just rectpack.
func killSearchBackends(mode chaos.Mode) []chaos.Rule {
	return []chaos.Rule{
		{Site: chaosSiteRectpack, Mode: mode},
		{Site: chaosSitePreempt, Mode: mode},
		{Site: chaosSiteAnneal, Mode: mode},
	}
}

// goldenSchedule reads the scenario's frozen schedule-layer bytes.
func goldenSchedule(t *testing.T, sc corpus.Scenario) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", sc.Name, corpus.LayerSchedule))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	return b
}

// classicReference computes what the portfolio's classic racer produces
// for a scenario — the grid-swept best with the backend annotation the
// racer stamps. It bypasses the classic backend's failpoint, so it is
// stable even while a plan is killing classic.
func classicReference(t *testing.T, sc corpus.Scenario) []byte {
	t.Helper()
	s := sc.Build()
	params, err := sc.ResolveParams(s)
	if err != nil {
		t.Fatal(err)
	}
	params.Backend = sched.DefaultBackend
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := opt.SweepBestContext(context.Background(), params, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := schedio.Save(&buf, sch); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertValid checks the portfolio's survivor schedule against the full
// invariant suite.
func assertValid(t *testing.T, sc corpus.Scenario, sch *sched.Schedule) {
	t.Helper()
	if err := sched.CheckInvariants(sc.Build(), sch); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

// TestChaosKillSearchBackendsMatchesGolden kills every search backend
// outright and replays the whole corpus through the portfolio: classic
// survives, so every scenario's schedule must be byte-identical to its
// frozen golden (modulo the winner annotation the portfolio always
// stamps).
func TestChaosKillSearchBackendsMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus chaos replay skipped in -short mode")
	}
	sched.ResetPortfolioHealth()
	t.Cleanup(sched.ResetPortfolioHealth)
	plan := chaos.Enable(chaos.Plan{Rules: killSearchBackends(chaos.ModeError)})
	t.Cleanup(plan.Disable)

	t.Run("scenarios", func(t *testing.T) {
		for _, sc := range corpus.All() {
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				sch, got, err := corpus.ReplaySchedule(sc, "portfolio")
				if err != nil {
					t.Fatalf("portfolio with the search backends dead: %v", err)
				}
				assertValid(t, sc, sch)
				if sch.Params.Backend != sched.DefaultBackend {
					t.Fatalf("winner %q, want %q (the search backends are dead)", sch.Params.Backend, sched.DefaultBackend)
				}
				if sc.SingleRun {
					// The portfolio races grid-swept racers only, so SingleRun
					// goldens (one pinned run) are compared against the classic
					// racer's deterministic sweep instead.
					if want := classicReference(t, sc); !bytes.Equal(got, want) {
						t.Errorf("schedule drifted from classic racer reference:\n%s", corpus.Diff(want, got))
					}
					return
				}
				// Strip the winner annotation: the golden was frozen via the
				// default dispatch path, which leaves Backend empty.
				sch.Params.Backend = ""
				var buf bytes.Buffer
				if err := schedio.Save(&buf, sch); err != nil {
					t.Fatal(err)
				}
				if want := goldenSchedule(t, sc); !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("schedule drifted from golden:\n%s", corpus.Diff(want, buf.Bytes()))
				}
			})
		}
	})
	for _, site := range []string{chaosSiteRectpack, chaosSitePreempt, chaosSiteAnneal} {
		if plan.Hits(site) == 0 {
			t.Errorf("failpoint %s never fired", site)
		}
	}
}

// TestChaosKillClassicDegradesToRectpack kills the classic baseline and
// the annealing search and replays the whole corpus: the portfolio must
// degrade to the packing backend serving the scenario's regime — rectpack
// without preemption budgets, preempt-rectpack with them — with bytes
// identical to that backend's own chaos-free replay.
func TestChaosKillClassicDegradesToRectpack(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus chaos replay skipped in -short mode")
	}
	sched.ResetPortfolioHealth()
	t.Cleanup(sched.ResetPortfolioHealth)
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: chaosSiteClassic, Mode: chaos.ModeError},
		{Site: chaosSiteAnneal, Mode: chaos.ModeError},
	}})
	t.Cleanup(plan.Disable)

	t.Run("scenarios", func(t *testing.T) {
		for _, sc := range corpus.All() {
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				s := sc.Build()
				params, err := sc.ResolveParams(s)
				if err != nil {
					t.Fatal(err)
				}
				survivor := rectpack.Name
				if _, declined := sched.BackendDeclines(rectpack.New(), params); declined {
					survivor = rectpack.PreemptName
				}
				sch, got, err := corpus.ReplaySchedule(sc, "portfolio")
				if err != nil {
					t.Fatalf("portfolio with classic and anneal dead: %v", err)
				}
				assertValid(t, sc, sch)
				if sch.Params.Backend != survivor {
					t.Fatalf("winner %q, want %s (classic and anneal are dead)", sch.Params.Backend, survivor)
				}
				// The survivor's failpoint is not armed, so its direct replay
				// is the chaos-free reference the portfolio must reproduce.
				_, want, err := corpus.ReplaySchedule(sc, survivor)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("schedule drifted from %s reference:\n%s", survivor, corpus.Diff(want, got))
				}
			})
		}
	})
	stats := sched.PortfolioStats()
	if got := stats[rectpack.Name]; got.Won == 0 {
		t.Errorf("rectpack should be winning: %+v", got)
	}
	if got := stats[rectpack.PreemptName]; got.Won == 0 {
		t.Errorf("preempt-rectpack should win the budget-bearing scenarios: %+v", got)
	}
	if plan.Hits(chaosSiteClassic) == 0 {
		t.Error("classic failpoint never fired")
	}
}

// TestChaosKillAnnealDegradesCleanly kills only the annealing search and
// replays the whole corpus through the portfolio: some other backend must
// win every scenario with a schedule that is valid, byte-identical to the
// winner's own chaos-free replay, and never worse than the classic
// baseline — losing the strongest racer degrades quality, never safety.
func TestChaosKillAnnealDegradesCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus chaos replay skipped in -short mode")
	}
	sched.ResetPortfolioHealth()
	t.Cleanup(sched.ResetPortfolioHealth)
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: chaosSiteAnneal, Mode: chaos.ModeError},
	}})
	t.Cleanup(plan.Disable)

	t.Run("scenarios", func(t *testing.T) {
		for _, sc := range corpus.All() {
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				sch, got, err := corpus.ReplaySchedule(sc, "portfolio")
				if err != nil {
					t.Fatalf("portfolio with anneal dead: %v", err)
				}
				assertValid(t, sc, sch)
				winner := sch.Params.Backend
				if winner == "anneal" {
					t.Fatalf("dead anneal won the race")
				}
				classic, _, err := corpus.ReplaySchedule(sc, "")
				if err != nil {
					t.Fatal(err)
				}
				if sch.Makespan > classic.Makespan {
					t.Errorf("portfolio makespan %d worse than classic %d with anneal dead", sch.Makespan, classic.Makespan)
				}
				if winner != sched.DefaultBackend {
					_, want, err := corpus.ReplaySchedule(sc, winner)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Errorf("schedule drifted from %s reference:\n%s", winner, corpus.Diff(want, got))
					}
				}
			})
		}
	})
	if got := sched.PortfolioStats()["anneal"]; got.Failed == 0 {
		t.Errorf("anneal's chaos kills should count as failures: %+v", got)
	}
	if plan.Hits(chaosSiteAnneal) == 0 {
		t.Error("anneal failpoint never fired")
	}
}

// replayPortfolioTimeout replays one scenario through the portfolio with
// a per-racer deadline, returning the winner and its bytes.
func replayPortfolioTimeout(t *testing.T, name string, timeout time.Duration) (*sched.Schedule, []byte) {
	t.Helper()
	sc, ok := corpus.ByName(name)
	if !ok {
		t.Fatalf("no corpus scenario %q", name)
	}
	s := sc.Build()
	params, err := sc.ResolveParams(s)
	if err != nil {
		t.Fatal(err)
	}
	params.Backend = "portfolio"
	params.BackendTimeout = timeout
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := opt.ScheduleBackend(context.Background(), params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := schedio.Save(&buf, sch); err != nil {
		t.Fatal(err)
	}
	return sch, buf.Bytes()
}

// TestChaosSlowAndHungRectpackTimesOut slows one replay's rectpack racer
// far past the per-racer deadline and hangs another's outright: both
// must be abandoned at BackendTimeout, with classic's schedule winning,
// byte-identical to its deterministic reference.
func TestChaosSlowAndHungRectpackTimesOut(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus chaos replay skipped in -short mode")
	}
	for _, tc := range []struct {
		name     string
		scenario string
		mode     chaos.Mode
	}{
		// Both cases use a scenario where classic does not hit the LB(W)
		// optimality floor: a floor hit cancels the race before the stalled
		// racer's deadline, so its timeout would (correctly) go unobserved.
		{"delay", "demo8-w16", chaos.ModeDelay},
		{"hang", "demo8-w16", chaos.ModeHang},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched.ResetPortfolioHealth()
			t.Cleanup(sched.ResetPortfolioHealth)
			// Anneal is killed outright: it ties classic on this scenario and
			// would win the alphabetical tie-break, hiding the timeout path
			// under test.
			plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
				{Site: chaosSiteRectpack, Mode: tc.mode, Delay: time.Hour},
				{Site: chaosSiteAnneal, Mode: chaos.ModeError},
			}})
			t.Cleanup(plan.Disable)

			start := time.Now()
			sch, got := replayPortfolioTimeout(t, tc.scenario, 150*time.Millisecond)
			if elapsed := time.Since(start); elapsed > 30*time.Second {
				t.Fatalf("race took %v; a %s rectpack delayed the winner far past BackendTimeout", elapsed, tc.name)
			}
			sc, _ := corpus.ByName(tc.scenario)
			assertValid(t, sc, sch)
			if sch.Params.Backend != sched.DefaultBackend {
				t.Fatalf("winner %q, want %q", sch.Params.Backend, sched.DefaultBackend)
			}
			if want := classicReference(t, sc); !bytes.Equal(got, want) {
				t.Errorf("schedule drifted from classic reference:\n%s", corpus.Diff(want, got))
			}
			if stats := sched.PortfolioStats()["rectpack"]; stats.TimedOut == 0 {
				t.Errorf("rectpack should have timed out: %+v", stats)
			}
		})
	}
}

// TestChaosPanickingRectpackContained turns the rectpack racer into a
// panicking one; the panic must be contained to its goroutine and the
// portfolio must still return classic's golden-equivalent schedule.
func TestChaosPanickingRectpackContained(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus chaos replay skipped in -short mode")
	}
	sched.ResetPortfolioHealth()
	t.Cleanup(sched.ResetPortfolioHealth)
	// Anneal dies plainly alongside: it ties classic here and would win
	// the alphabetical tie-break otherwise.
	plan := chaos.Enable(chaos.Plan{Rules: []chaos.Rule{
		{Site: chaosSiteRectpack, Mode: chaos.ModePanic},
		{Site: chaosSiteAnneal, Mode: chaos.ModeError},
	}})
	t.Cleanup(plan.Disable)

	sc, ok := corpus.ByName("toy6-bist1-w8")
	if !ok {
		t.Fatal("no corpus scenario toy6-bist1-w8")
	}
	sch, got, err := corpus.ReplaySchedule(sc, "portfolio")
	if err != nil {
		t.Fatalf("portfolio with panicking rectpack: %v", err)
	}
	assertValid(t, sc, sch)
	if want := classicReference(t, sc); !bytes.Equal(got, want) {
		t.Errorf("schedule drifted from classic reference:\n%s", corpus.Diff(want, got))
	}
	if stats := sched.PortfolioStats()["rectpack"]; stats.Failed == 0 {
		t.Errorf("rectpack's panic should count as a failure: %+v", stats)
	}
}

// TestChaosEveryFailpointFires arms every registered failpoint with a
// one-shot error and drives each subsystem until the whole registry has
// fired — proof that no chaos.Inject site is dead code the suite never
// reaches.
func TestChaosEveryFailpointFires(t *testing.T) {
	sched.ResetPortfolioHealth()
	t.Cleanup(sched.ResetPortfolioHealth)
	rules := make([]chaos.Rule, 0, len(chaos.Sites()))
	for _, site := range chaos.Sites() {
		rules = append(rules, chaos.Rule{Site: site, Mode: chaos.ModeError, Count: 1})
	}
	plan := chaos.Enable(chaos.Plan{Rules: rules})
	t.Cleanup(plan.Disable)

	sc, ok := corpus.ByName("toy4-w8")
	if !ok {
		t.Fatal("no corpus scenario toy4-w8")
	}
	// Each replay spends one-shot rules racer by racer until every
	// scheduling failpoint has fired; a replay where every racer eats a
	// fault simply errors and the next one proceeds with the spent rules
	// gone. The preempt-rectpack site needs a budget-bearing scenario —
	// it declines everything else and a declined racer never runs.
	for i := 0; i < 5 && (plan.FireCount(chaosSiteClassic) == 0 ||
		plan.FireCount(chaosSiteRacer) == 0 || plan.FireCount(chaosSiteRectpack) == 0 ||
		plan.FireCount(chaosSiteAnneal) == 0); i++ {
		if _, _, err := corpus.ReplaySchedule(sc, "portfolio"); err != nil {
			t.Logf("replay %d under full fault plan: %v", i, err)
		}
	}
	scp, ok := corpus.ByName("demo8-w12-preempt1")
	if !ok {
		t.Fatal("no corpus scenario demo8-w12-preempt1")
	}
	for i := 0; i < 3 && plan.FireCount(chaosSitePreempt) == 0; i++ {
		if _, _, err := corpus.ReplaySchedule(scp, "portfolio"); err != nil {
			t.Logf("preempt replay %d under full fault plan: %v", i, err)
		}
	}

	// The service sites: the first schedule request eats the registry
	// build fault, the next one the schedule fault.
	svc, err := service.New(service.Config{Preload: []string{"demo8"}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	for i := 0; i < 3 && (plan.FireCount(chaosSiteRegistry) == 0 ||
		plan.FireCount(chaosSiteService) == 0); i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/schedule", "application/json",
			bytes.NewReader([]byte(`{"soc":"demo8","params":{"tamWidth":16}}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	// The job pool site: one submitted job eats the run fault.
	jb, err := svc.Jobs().Submit("chaos", func(context.Context) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	<-jb.Done()

	fired := make(map[string]bool)
	for _, site := range plan.Fired() {
		fired[site] = true
	}
	for _, site := range chaos.Sites() {
		if !fired[site] {
			t.Errorf("failpoint %s never fired", site)
		}
	}
}
