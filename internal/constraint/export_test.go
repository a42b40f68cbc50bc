package constraint

import "fmt"

// Conflict reports why core id, which must not be running, may not start
// now, or "" when it may. It mirrors the paper's Conflict subroutine:
// precedence (lines 2-3), concurrency (4-5), power (6-9), and BIST-scan
// conflicts (10-11). It builds its reason anew from the running and
// complete flags, not from the waiting and exclusion counters OK reads,
// so it is the oracle the tests check OK against. No scheduler needs a
// reason: a classic run always has a core that passes OK (see the sched
// runner's update), and the packing decoder only asks OK.
func (st *State) Conflict(id int) string {
	c := st.chk
	for _, pre := range c.preds.row(id) {
		if !st.cores[pre].complete {
			return fmt.Sprintf("precedence: core %d must complete before core %d", pre, id)
		}
	}
	for _, o := range c.excl.row(id) {
		if st.cores[o].running && !c.sharesEngine(id, o) {
			return fmt.Sprintf("concurrency: core %d may not run with core %d", id, o)
		}
	}
	if sum := st.power + c.power[id]; c.powerMax > 0 && sum > c.powerMax {
		return fmt.Sprintf("power: %d exceeds budget %d", sum, c.powerMax)
	}
	for _, o := range c.excl.row(id) {
		if st.cores[o].running {
			return fmt.Sprintf("bist: cores %d and %d share BIST engine %d", id, o, c.engine[id])
		}
	}
	return ""
}
