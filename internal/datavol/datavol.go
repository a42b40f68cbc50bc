// Package datavol implements Problem 3 of the DAC 2002 framework: the
// relationship between total TAM width W, SOC testing time T(W), and tester
// data volume D(W), and the identification of an "effective" TAM width that
// trades the two off.
//
// The tester stores, for each TAM pin, one memory column as deep as the
// test schedule is long, so the per-pin memory depth equals T(W) and the
// total tester data volume is D(W) = W · T(W) bits. T(W) decreases only at
// Pareto-optimal widths, so D(W) is non-monotonic with local minima exactly
// at those widths. The normalized cost
//
//	C(γ, W) = γ·T(W)/T_min + (1−γ)·D(W)/D_min
//
// is U-shaped in W; its minimizer is the effective TAM width W_e.
package datavol

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/sched"
	"repro/internal/soc"
)

// Sample is one point of the W sweep.
type Sample struct {
	// TAMWidth is W.
	TAMWidth int
	// Time is the scheduled SOC testing time T(W) in cycles.
	Time int64
	// Volume is the tester data volume D(W) = W·T(W) in bits.
	Volume int64
}

// Sweep holds T(W) and D(W) across a width range for one SOC.
type Sweep struct {
	// SOC names the swept SOC.
	SOC string
	// Samples are ordered by increasing TAMWidth.
	Samples []Sample
	// MinTime / MinTimeWidth locate T_min.
	MinTime      int64
	MinTimeWidth int
	// MinVolume / MinVolumeWidth locate D_min.
	MinVolume      int64
	MinVolumeWidth int
}

// Config tunes a sweep.
type Config struct {
	// WidthLo and WidthHi bound the sweep (inclusive). Defaults: 4..80
	// (the paper plots 0..80; widths below 4 are uninformative and slow).
	WidthLo, WidthHi int
	// Params carries scheduler settings applied at every width; TAMWidth
	// and Workers are overwritten per sample. Preemption is normally
	// disabled for data-volume studies (the paper's Table 2 uses the
	// non-preemptive times).
	Params sched.Params
	// Percents, Deltas optionally override the per-width parameter grid
	// used to pick the best schedule (defaults: paper grid).
	Percents, Deltas []int
	// Workers bounds the number of widths scheduled concurrently: 0 means
	// GOMAXPROCS, 1 forces the fully sequential path. Every width is an
	// independent scheduler run against a shared read-only Optimizer, and
	// samples are collected in width order, so the resulting Sweep is
	// identical regardless of the worker count. Each width's
	// parameter-grid sweep runs sequentially.
	Workers int
}

// Run sweeps W over the configured range, scheduling the SOC at each width
// with the best (percent, delta) found on the grid. Widths are fanned out
// over cfg.Workers goroutines; see Config.Workers for the determinism
// guarantee.
func Run(s *soc.SOC, cfg Config) (*Sweep, error) {
	opt, err := sched.New(s, cfg.Params.Defaults().MaxWidth)
	if err != nil {
		return nil, err
	}
	return RunWith(opt, cfg)
}

// RunWith is Run against a pre-built scheduler optimizer, reusing its
// Pareto sets across sweeps (a service answering repeated sweeps for one
// SOC pays the staircase construction, and with it every wrapper design,
// once). The optimizer's width cap must cover cfg.Params.MaxWidth.
func RunWith(opt *sched.Optimizer, cfg Config) (*Sweep, error) {
	return RunWithContext(context.Background(), opt, cfg)
}

// RunWithContext is RunWith with cancellation: once ctx is done the sweep
// stops scheduling further widths (and the per-width parameter-grid sweeps
// stop launching grid points), in-flight scheduler runs finish, and ctx's
// error is returned. A nil ctx behaves like context.Background(), and an
// uncancellable context leaves the Sweep byte-identical to RunWith. Each
// width's T(W) comes from sched.Optimizer.SweepMakespan: a sample needs
// the best schedule's makespan, not its wiring.
func RunWithContext(ctx context.Context, opt *sched.Optimizer, cfg Config) (*Sweep, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	s := opt.SOC()
	if cfg.WidthLo == 0 {
		cfg.WidthLo = 4
	}
	if cfg.WidthHi == 0 {
		cfg.WidthHi = 80
	}
	if cfg.WidthLo < 1 || cfg.WidthHi < cfg.WidthLo {
		return nil, fmt.Errorf("datavol: bad width range [%d,%d]", cfg.WidthLo, cfg.WidthHi)
	}
	n := cfg.WidthHi - cfg.WidthLo + 1
	samples := make([]Sample, n)
	errs := make([]error, n)
	// minFail tracks the lowest failing width index so far. Widths above it
	// are skipped — the sweep's outcome is already fixed to that error —
	// while lower widths still run, so the error finally returned is the
	// lowest failing width's, exactly as on the sequential path.
	var minFail atomic.Int64
	minFail.Store(int64(n))
	ferr := sched.ForEachContext(ctx, cfg.Workers, n, func(i int) {
		if int64(i) > minFail.Load() {
			return
		}
		w := cfg.WidthLo + i
		p := cfg.Params
		p.TAMWidth, p.Workers = w, 1
		t, err := opt.SweepMakespan(ctx, p, cfg.Percents, cfg.Deltas)
		if err != nil {
			errs[i] = fmt.Errorf("datavol: width %d: %w", w, err)
			for {
				cur := minFail.Load()
				if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
			return
		}
		samples[i] = Sample{TAMWidth: w, Time: t, Volume: int64(w) * t}
	})
	if ferr != nil {
		return nil, ferr // cancelled: the partial sweep is meaningless
	}
	if m := minFail.Load(); m < int64(n) {
		return nil, errs[m]
	}
	sw := &Sweep{SOC: s.Name, Samples: samples}
	sw.finalizeMinima()
	return sw, nil
}

// finalizeMinima recomputes MinTime/MinVolume (and their widths) from the
// samples. The minima seed from the first sample rather than a zero
// sentinel, so a theoretical zero-time sample cannot corrupt them.
func (sw *Sweep) finalizeMinima() {
	for i, smp := range sw.Samples {
		if i == 0 || smp.Time < sw.MinTime {
			sw.MinTime, sw.MinTimeWidth = smp.Time, smp.TAMWidth
		}
		if i == 0 || smp.Volume < sw.MinVolume {
			sw.MinVolume, sw.MinVolumeWidth = smp.Volume, smp.TAMWidth
		}
	}
}

// checkMinima rejects sweeps whose normalization minima are unusable: an
// empty sweep, or one built by hand / decoded from JSON with non-positive
// MinTime or MinVolume, would otherwise yield silent ±Inf/NaN costs.
func (sw *Sweep) checkMinima() error {
	if len(sw.Samples) == 0 {
		return fmt.Errorf("datavol: empty sweep")
	}
	if sw.MinTime <= 0 || sw.MinVolume <= 0 {
		return fmt.Errorf("datavol: sweep %q has non-positive minima (T_min=%d, D_min=%d); cost is undefined",
			sw.SOC, sw.MinTime, sw.MinVolume)
	}
	return nil
}

// Cost returns C(γ, W) for the sample, normalized by the sweep's minima.
// It panics with a descriptive message when the sweep's minima are
// non-positive (a hand-built or corrupt Sweep); EffectiveWidth reports the
// same condition as an error.
func (sw *Sweep) Cost(gamma float64, s Sample) float64 {
	if err := sw.checkMinima(); err != nil {
		panic(err)
	}
	return gamma*float64(s.Time)/float64(sw.MinTime) +
		(1-gamma)*float64(s.Volume)/float64(sw.MinVolume)
}

// CostCurve returns the C(γ, W) series over the sweep (Fig. 9(c)/(d)).
type CostPoint struct {
	TAMWidth int
	Cost     float64
}

// CostCurve evaluates the cost function at every swept width. Like Cost,
// it panics when the sweep is empty or its minima are non-positive.
func (sw *Sweep) CostCurve(gamma float64) []CostPoint {
	if err := sw.checkMinima(); err != nil {
		panic(err)
	}
	out := make([]CostPoint, len(sw.Samples))
	for i, s := range sw.Samples {
		out[i] = CostPoint{TAMWidth: s.TAMWidth, Cost: sw.Cost(gamma, s)}
	}
	return out
}

// Effective is the outcome of an effective-width identification: the W
// minimizing C(γ, ·) and the resulting time/volume (a Table 2 row).
type Effective struct {
	Gamma    float64
	CostMin  float64
	TAMWidth int
	Time     int64
	Volume   int64
}

// EffectiveWidth minimizes C(γ, ·) over the sweep. Ties break toward the
// smaller width (cheaper routing, per the paper's motivation).
func (sw *Sweep) EffectiveWidth(gamma float64) (Effective, error) {
	if gamma < 0 || gamma > 1 {
		return Effective{}, fmt.Errorf("datavol: gamma %v outside [0,1]", gamma)
	}
	if err := sw.checkMinima(); err != nil {
		return Effective{}, err
	}
	best := Effective{Gamma: gamma, CostMin: math.Inf(1)}
	for _, s := range sw.Samples {
		c := sw.Cost(gamma, s)
		if c < best.CostMin-1e-12 {
			best.CostMin = c
			best.TAMWidth = s.TAMWidth
			best.Time = s.Time
			best.Volume = s.Volume
		}
	}
	return best, nil
}

// MultisiteThroughput models the paper's multisite-testing motivation:
// given a tester with pinCount digital channels and a per-pin vector buffer
// of bufferDepth bits, a schedule at width W with per-pin depth T fits only
// when T <= bufferDepth, and the number of ICs testable in parallel is
// floor(pinCount / W). The returned figure is sites tested per second at
// the given tester cycle rate, or an error when the buffer is exceeded
// (requiring costly mid-test reloads).
func MultisiteThroughput(s Sample, pinCount int, bufferDepth int64, hz float64) (float64, error) {
	if s.TAMWidth > pinCount {
		return 0, fmt.Errorf("datavol: width %d exceeds tester pin count %d", s.TAMWidth, pinCount)
	}
	if s.Time > bufferDepth {
		return 0, fmt.Errorf("datavol: per-pin depth %d exceeds tester buffer %d", s.Time, bufferDepth)
	}
	sites := pinCount / s.TAMWidth
	perBatchSeconds := float64(s.Time) / hz
	return float64(sites) / perBatchSeconds, nil
}
