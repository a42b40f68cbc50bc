// Differential coverage over the real benchmark SOCs and the scenario
// corpus. This lives in an external test package because internal/bench
// and internal/corpus transitively import wrapper; external test packages
// may close that cycle.
package wrapper_test

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/corpus"
	"repro/internal/soc"
	"repro/internal/wrapper"
)

// TestDesignWrapperMatchesReferenceBenchSOCs asserts the hard tentpole bar:
// over every core of every benchmark SOC and of every corpus scenario's
// SOC, at every width 1..128, DesignWrapper produces the retained
// reference's design, and ScanLengths its longest scan-in and scan-out.
// Neither scan length ever exceeds its width-1 value. With -short, which
// the race-detector run uses, only the benchmark SOCs run, at widths
// 1..64.
func TestDesignWrapperMatchesReferenceBenchSOCs(t *testing.T) {
	socs := bench.All()
	demo, err := bench.ByName("demo8")
	if err != nil {
		t.Fatal(err)
	}
	socs = append(socs, demo)
	maxWidth := 64
	if !testing.Short() {
		maxWidth = 128
		for _, sc := range corpus.All() {
			s := sc.Build()
			if !slices.ContainsFunc(socs, func(o *soc.SOC) bool { return reflect.DeepEqual(o.Cores, s.Cores) }) {
				socs = append(socs, s)
			}
		}
	}
	for _, s := range socs {
		for _, c := range s.Cores {
			wrapper.CheckWidths(t, c, maxWidth)
		}
	}
}
