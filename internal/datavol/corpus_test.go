package datavol_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/datavol"
	"repro/internal/sched"
)

// TestSamplesAreSweepMakespans: a sample's T(W) is the makespan of the
// schedule SweepBestContext wires at W, at every width of every corpus
// scenario's window but the monsters', under the scenario's parameters.
// datavol reads the makespan without wiring the schedule.
func TestSamplesAreSweepMakespans(t *testing.T) {
	widths := 0
	for _, sc := range corpus.All() {
		if strings.HasPrefix(sc.Name, "monster") {
			continue
		}
		s := sc.Build()
		params, err := sc.ResolveParams(s)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := sched.New(s, sched.DefaultMaxWidth)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := datavol.RunWith(opt, datavol.Config{WidthLo: sc.WidthLo, WidthHi: sc.WidthHi, Params: params, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		for _, smp := range sw.Samples {
			p := params
			p.TAMWidth = smp.TAMWidth
			sch, err := opt.SweepBestContext(context.Background(), p, nil, nil)
			if err != nil {
				t.Fatalf("%s W=%d: %v", sc.Name, smp.TAMWidth, err)
			}
			if smp.Time != sch.Makespan || smp.Volume != int64(smp.TAMWidth)*sch.Makespan {
				t.Errorf("%s W=%d: sample T=%d D=%d; the wired schedule's makespan is %d", sc.Name, smp.TAMWidth, smp.Time, smp.Volume, sch.Makespan)
			}
			widths++
		}
	}
	t.Logf("%d widths match", widths)
}
