package corpus

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/sched"
	"repro/internal/soc"
)

// TestReplayScheduleBackends replays the schedule layer of a grid-swept
// and a single-run scenario under every registered backend that accepts
// them: the classic replay is the frozen schedule layer byte for byte,
// every backend replays deterministically, an unknown name fails with
// ErrUnknownBackend, and an invalid SOC is rejected before scheduling.
func TestReplayScheduleBackends(t *testing.T) {
	for _, name := range []string{"toy4-w8", "d695-w32-lean-heuristics"} {
		sc, ok := ByName(name)
		if !ok {
			t.Fatalf("%s missing from corpus", name)
		}
		layers, err := Replay(sc)
		if err != nil {
			t.Fatal(err)
		}
		params, err := sc.ResolveParams(sc.Build())
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range sched.Backends() {
			b, err := sched.BackendByName(backend)
			if err != nil {
				t.Fatal(err)
			}
			if _, declined := sched.BackendDeclines(b, params); declined {
				continue
			}
			_, first, err := ReplaySchedule(sc, backend)
			if err != nil {
				t.Fatalf("%s %s: %v", name, backend, err)
			}
			if _, again, err := ReplaySchedule(sc, backend); err != nil || !bytes.Equal(first, again) {
				t.Errorf("%s %s: two replays differ (err %v):\n%s", name, backend, err, Diff(first, again))
			}
			if sched.IsDefaultBackend(backend) && !bytes.Equal(first, layers[LayerSchedule]) {
				t.Errorf("%s: classic replay differs from the schedule layer:\n%s", name, Diff(layers[LayerSchedule], first))
			}
		}
		if _, _, err := ReplaySchedule(sc, "no-such-backend"); !errors.Is(err, sched.ErrUnknownBackend) {
			t.Errorf("%s: unknown backend: err %v, want ErrUnknownBackend", name, err)
		}
	}
	bad := Scenario{Name: "empty", Build: func() *soc.SOC { return &soc.SOC{Name: "empty"} }, Params: sched.Params{TAMWidth: 8}}
	if _, _, err := ReplaySchedule(bad, ""); err == nil {
		t.Error("a SOC without cores was replayed")
	}
}
