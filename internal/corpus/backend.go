package corpus

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/sched"
	"repro/internal/schedio"

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
	s := sc.Build()
	if err := s.Validate(); err != nil {
		return nil, nil, fmt.Errorf("corpus: %s: bad SOC: %w", sc.Name, err)
	}
	params, err := sc.ResolveParams(s)
	if err != nil {
		return nil, nil, err
	}
	// The classic default keeps Backend empty so the echoed Params — and
	// with them the schedio bytes — stay identical to the frozen goldens.
	if !sched.IsDefaultBackend(backend) {
		params.Backend = backend
	}
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: %s: optimizer: %w", sc.Name, err)
	}
	sch, err := opt.ScheduleItem(context.Background(), sched.BatchItem{Params: params, Best: !sc.SingleRun})
	if err != nil {
		return nil, nil, fmt.Errorf("corpus: %s: backend %q: %w", sc.Name, backend, err)
	}
	var buf bytes.Buffer
	if err := schedio.Save(&buf, sch); err != nil {
		return nil, nil, fmt.Errorf("corpus: %s: save schedule: %w", sc.Name, err)
	}
	return sch, buf.Bytes(), nil
}
