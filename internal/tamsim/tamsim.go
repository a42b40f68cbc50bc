// Package tamsim simulates the execution of an SOC test schedule on a
// tester (ATE) connected to the SOC's TAM: per-pin vector memory, wire-level
// TAM occupancy, and — for unpreempted cores — bit-accurate shifting of
// stimulus and response through the designed wrapper chains, verifying that
// the schedule's predicted testing times and the paper's timing model
//
//	T = (1 + max(si,so))·p + min(si,so)
//	  = si + (p-1)·(1 + max(si,so)) + 1 + so
//
// agree with an actual cycle-by-cycle execution, and that every response
// the ATE receives matches the golden core model.
package tamsim

import (
	"fmt"
	"sort"

	"repro/internal/bist"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/soc"
	"repro/internal/wrapper"
)

// Options tunes a simulation.
type Options struct {
	// BitLevelMaxBits bounds the per-core test-data size (stimulus +
	// response bits) for which full bit-level simulation is performed;
	// larger cores are verified at cycle granularity only. Default 2e6.
	// Set negative to disable bit-level simulation entirely.
	BitLevelMaxBits int64
}

// CoreResult reports per-core simulation outcomes.
type CoreResult struct {
	CoreID int
	// Cycles is the total scheduled cycles the core occupied its wires.
	Cycles int64
	// BitLevel reports whether the core was simulated bit-by-bit.
	BitLevel bool
	// PayloadBits counts stimulus+response bits moved for this core.
	PayloadBits int64
	// MismatchedResponses counts response bits that differed from the
	// golden model (always 0 for a correct transport).
	MismatchedResponses int
}

// Result is the outcome of simulating a schedule.
type Result struct {
	// SOC and TAMWidth echo the schedule.
	SOC      string
	TAMWidth int
	// MeasuredMakespan is the last cycle any TAM wire is busy.
	MeasuredMakespan int64
	// PerPinDepth is the ATE vector memory depth required per TAM pin.
	PerPinDepth int64
	// DataVolume is the tester data volume: TAMWidth · PerPinDepth bits.
	DataVolume int64
	// PayloadBits is the total useful test data moved (all cores).
	PayloadBits int64
	// BitLevelCores counts cores verified bit-by-bit.
	BitLevelCores int
	// Cores holds per-core results keyed by core ID.
	Cores map[int]*CoreResult
}

// PayloadEfficiency returns PayloadBits / DataVolume. Because scan-in of
// one pattern overlaps scan-out of the previous one, a busy TAM wire moves
// up to two payload bits per cycle, so values above 1.0 indicate
// well-overlapped schedules; idle wires and pipeline head/tail cycles pull
// the ratio down.
func (r *Result) PayloadEfficiency() float64 {
	if r.DataVolume == 0 {
		return 0
	}
	return float64(r.PayloadBits) / float64(r.DataVolume)
}

// Simulate executes the schedule. It fails on any inconsistency: BIST
// engine double-acquisition, any sched.CheckInvariants violation (wire
// double-booking among them), cycle-count mismatches against the wrapper
// timing model, or response mismatches in bit-level mode.
func Simulate(s *soc.SOC, sch *sched.Schedule, opts Options) (*Result, error) {
	if opts.BitLevelMaxBits == 0 {
		opts.BitLevelMaxBits = 2_000_000
	}
	if err := checkBISTExclusion(s, sch); err != nil {
		return nil, err
	}
	if err := sched.CheckInvariants(s, sch); err != nil {
		return nil, fmt.Errorf("tamsim: %w", err)
	}
	res := &Result{
		SOC:      s.Name,
		TAMWidth: sch.TAMWidth,
		Cores:    make(map[int]*CoreResult, len(s.Cores)),
	}

	for _, c := range s.Cores {
		a := sch.Assignments[c.ID]
		cr, err := simulateCore(c, a, opts)
		if err != nil {
			return nil, err
		}
		res.Cores[c.ID] = cr
		res.PayloadBits += cr.PayloadBits
		if cr.BitLevel {
			res.BitLevelCores++
		}
		if e := a.End(); e > res.MeasuredMakespan {
			res.MeasuredMakespan = e
		}
	}
	if res.MeasuredMakespan != sch.Makespan {
		return nil, fmt.Errorf("tamsim: measured makespan %d != schedule %d", res.MeasuredMakespan, sch.Makespan)
	}
	res.PerPinDepth = res.MeasuredMakespan
	res.DataVolume = int64(res.TAMWidth) * res.PerPinDepth
	return res, nil
}

// checkBISTExclusion replays the schedule against the BIST engine registry:
// engines are acquired at each BIST test's start and released at its end;
// overlapping acquisition is a hard error.
func checkBISTExclusion(s *soc.SOC, sch *sched.Schedule) error {
	var ids []int
	for _, c := range s.Cores {
		if c.Test.BISTEngine >= 0 {
			ids = append(ids, c.Test.BISTEngine)
		}
	}
	if len(ids) == 0 {
		return nil
	}
	reg := bist.NewRegistry(ids)
	type ev struct {
		t       int64
		release bool
		core    int
		engine  int
	}
	var evs []ev
	for _, c := range s.Cores {
		a := sch.Assignments[c.ID]
		if c.Test.BISTEngine < 0 || a == nil || len(a.Pieces) == 0 {
			continue // no engine, or a defect CheckInvariants reports
		}
		evs = append(evs,
			ev{t: a.Start(), core: c.ID, engine: c.Test.BISTEngine},
			ev{t: a.End(), release: true, core: c.ID, engine: c.Test.BISTEngine},
		)
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].release && !evs[j].release // releases first
	})
	for _, e := range evs {
		var err error
		if e.release {
			err = reg.Release(e.engine, e.core)
		} else {
			err = reg.Acquire(e.engine, e.core)
		}
		if err != nil {
			return fmt.Errorf("tamsim: t=%d: %v", e.t, err)
		}
	}
	return nil
}

// simulateCore verifies one core's assignment, bit-level when affordable.
func simulateCore(c *soc.Core, a *sched.Assignment, opts Options) (*CoreResult, error) {
	d, err := wrapper.DesignWrapper(c, a.Width)
	if err != nil {
		return nil, err
	}
	cr := &CoreResult{CoreID: c.ID}
	for i := range a.Pieces {
		cr.Cycles += a.Pieces[i].Duration()
	}
	want := d.TestTime() + int64(a.Preemptions)*d.PreemptionPenalty()
	if cr.Cycles != want {
		return nil, fmt.Errorf("tamsim: core %d occupies %d cycles, timing model wants %d", c.ID, cr.Cycles, want)
	}
	in, out := 0, 0
	for j := range d.Chains {
		in += d.Chains[j].ScanIn()
		out += d.Chains[j].ScanOut()
	}
	cr.PayloadBits = int64(c.Test.Patterns) * int64(in+out)

	sizeBits := cr.PayloadBits
	if opts.BitLevelMaxBits < 0 || sizeBits > opts.BitLevelMaxBits || a.Preemptions > 0 {
		return cr, nil // cycle-level verification only
	}
	cycles, mism, err := shiftBitLevel(c, d)
	if err != nil {
		return nil, err
	}
	if cycles != d.TestTime() {
		return nil, fmt.Errorf("tamsim: core %d bit-level run took %d cycles, model says %d", c.ID, cycles, d.TestTime())
	}
	cr.BitLevel = true
	cr.MismatchedResponses = mism
	if mism > 0 {
		return nil, fmt.Errorf("tamsim: core %d: %d response bits mismatched the golden model", c.ID, mism)
	}
	return cr, nil
}

// shiftBitLevel plays the full scan protocol for one core: initial scan-in,
// p-1 overlapped capture+shift slots, final capture and scan-out, counting
// every cycle and comparing every response bit the ATE receives against the
// golden model.
func shiftBitLevel(c *soc.Core, d *wrapper.Design) (cycles int64, mismatches int, err error) {
	set, err := pattern.Generate(c, d)
	if err != nil {
		return 0, 0, err
	}
	nchains := len(d.Chains)
	si, so := d.ScanInMax, d.ScanOutMax
	maxShift := si
	if so > maxShift {
		maxShift = so
	}

	// Per-chain stimulus/response framing: chain j owns a contiguous slice
	// of each vector's bits, in chain order.
	inLens := make([]int, nchains)
	outLens := make([]int, nchains)
	for j := 0; j < nchains; j++ {
		inLens[j] = d.Chains[j].ScanIn()
		outLens[j] = d.Chains[j].ScanOut()
	}

	inRegs := make([][]byte, nchains)  // captured stimulus per chain
	outRegs := make([][]byte, nchains) // pending response per chain, shifted out MSB-first
	received := make([][]byte, nchains)

	shiftSlot := func(vec *pattern.Vector, shifts int) {
		// One overlapped slot: chain j takes its next stimulus bit for the
		// first inLens[j] cycles and emits a response bit for the first
		// outLens[j] cycles.
		off := 0
		for j := 0; j < nchains; j++ {
			if vec != nil {
				inRegs[j] = append(inRegs[j][:0], vec.Stimulus[off:off+inLens[j]]...)
			}
			off += inLens[j]
		}
		for j := 0; j < nchains; j++ {
			n := outLens[j]
			if len(outRegs[j]) > 0 {
				received[j] = append(received[j], outRegs[j][:n]...)
				outRegs[j] = outRegs[j][:0]
			}
		}
	}

	verifySlot := func(k int) {
		// Compare the response received for vector k.
		if k < 0 {
			return
		}
		want := set.Vectors[k].Response
		off := 0
		for j := 0; j < nchains; j++ {
			got := received[j]
			for b := 0; b < outLens[j]; b++ {
				if got[b] != want[off+b] {
					mismatches++
				}
			}
			received[j] = received[j][:0]
			off += outLens[j]
		}
	}

	capture := func(k int) {
		// Core computes the response to vector k and loads scan-out cells.
		resp := pattern.Respond(c.ID, set.Vectors[k].Stimulus, set.ScanOutBits)
		off := 0
		for j := 0; j < nchains; j++ {
			outRegs[j] = append(outRegs[j][:0], resp[off:off+outLens[j]]...)
			off += outLens[j]
		}
	}

	p := c.Test.Patterns
	// Initial scan-in of vector 0.
	shiftSlot(&set.Vectors[0], si)
	cycles += int64(si)
	for k := 0; k < p-1; k++ {
		capture(k)
		cycles++ // capture cycle
		shiftSlot(&set.Vectors[k+1], maxShift)
		cycles += int64(maxShift)
		verifySlot(k)
	}
	capture(p - 1)
	cycles++
	shiftSlot(nil, so)
	cycles += int64(so)
	verifySlot(p - 1)

	return cycles, mismatches, nil
}
