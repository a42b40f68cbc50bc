package corpus

import (
	"repro/internal/sched"

	// Register the search backends so per-backend replays (and the
	// invariant suite built on them) always see the full registry,
	// regardless of what else the test binary imports.
	_ "repro/internal/rectpack"
)

// ReplaySchedule replays just the scenario's schedule layer under the
// named scheduling backend ("" = the default classic backend) and returns
// the schedule plus its canonical schedio bytes. For the classic backend
// it reproduces the scenario's golden schedule layer exactly: SingleRun
// scenarios replay a single sched.Run, everything else the grid-swept
// best. Other backends always produce their best schedule — they have no
// (α, δ) grid to pin.
func ReplaySchedule(sc Scenario, backend string) (*sched.Schedule, []byte, error) {
	_, params, opt, err := setUp(sc)
	if err != nil {
		return nil, nil, err
	}
	return schedule(sc, opt, params, backend)
}
