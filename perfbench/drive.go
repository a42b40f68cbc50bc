package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"repro/internal/datavol"
	"repro/internal/lb"
	"repro/internal/sched"
	"repro/internal/schedio"
	"repro/internal/soc"
)

// minRequests is the fewest requests a run completes: p90 then has ten
// samples beyond it.
const minRequests = 100

// setupRounds is how many times a run builds its service; setup_s is the
// median, and the last service built serves the measured traffic.
// setupSamples calibration samples precede each build.
const (
	setupRounds  = 9
	setupSamples = 5
)

// loadResult is one closed-loop run: every completed response, indexed
// like the plan's requests, the distinct documents they carried, and the
// time from the first send to the last answer on the wall clock and on the
// process CPU clock.
type loadResult struct {
	responses []response
	docs      map[docKey][]byte
	wall, cpu time.Duration
	cal       *calibrator // the run's calibration samples
}

// drive runs the closed loop: one client sends the plan's requests in
// order, each only after the previous one was answered. Sending stops at
// the first pass boundary after the run lasted d on the wall clock and at
// least max(prefix, minRequests) requests were sent, so those are always
// complete and a run covers whole passes of its traffic mix. Between
// requests, whenever the traffic has used calibEvery of CPU time since the
// last sample, the calibration kernel runs once; its time is left out of
// the run's CPU time.
func drive(e *env, p *plan, cal *calibrator, d time.Duration) loadResult {
	min := max(p.Prefix, minRequests)
	out := loadResult{responses: make([]response, len(p.Requests)), docs: make(map[docKey][]byte)}
	start, cpu0 := time.Now(), cpuNow()
	var calib, since time.Duration
	for i := range p.Requests {
		if i >= min && i%p.Pass == 0 && time.Since(start) >= d {
			break
		}
		out.responses[i] = e.call(&p.Requests[i], out.docs, false)
		if since += out.responses[i].cpu; since >= calibEvery {
			calib += cal.sample()
			since = 0
		}
	}
	out.wall, out.cpu = time.Since(start), cpuNow()-cpu0-calib
	return out
}

// checker validates service outputs. Every distinct schedule document is
// reloaded with schedio.Load against its SOC (which re-verifies it), run
// through sched.CheckInvariants and held to LB(W) <= makespan; results are
// memoized per document, lower bounds per (SOC, width).
type checker struct {
	socs    map[string]*soc.SOC
	docs    map[docKey][]byte
	lbs     map[string]int64
	checked map[string]docVerdict // by document, SOC and asked widths
	// timed, when set, receives the duration of each layer call a check
	// makes (the traced run attributes them).
	timed func(layer string, d time.Duration)
}

type docVerdict struct {
	gap float64 // (makespan − LB) / LB in percent
	err error
}

func newChecker(socs map[string]*soc.SOC, docs map[docKey][]byte) *checker {
	return &checker{socs: socs, docs: docs, lbs: make(map[string]int64), checked: make(map[string]docVerdict)}
}

func (c *checker) measure(layer string, f func()) {
	t0 := time.Now()
	f()
	if c.timed != nil {
		c.timed(layer, time.Since(t0))
	}
}

// lowerBound returns LB(W) for a registered SOC via lb.Compute.
func (c *checker) lowerBound(fp string, w int) (int64, error) {
	key := fmt.Sprintf("%s|%d", fp, w)
	if v, ok := c.lbs[key]; ok {
		return v, nil
	}
	var b lb.Bound
	var err error
	c.measure("lb.compute", func() { b, err = lb.Compute(c.socs[fp], w, sched.DefaultMaxWidth) })
	if err != nil {
		return 0, err
	}
	c.lbs[key] = b.Value()
	return b.Value(), nil
}

// gapPct is the schedule-quality measure: how far a makespan sits above
// the lower bound, in percent of the bound.
func gapPct(makespan, bound int64) float64 {
	return 100 * float64(makespan-bound) / float64(bound)
}

// schedule checks one schedule document answered for (fp, width).
func (c *checker) schedule(fp string, width int, k docKey) docVerdict {
	memo := fmt.Sprintf("%x|%s|%d", k, fp, width)
	if v, ok := c.checked[memo]; ok {
		return v
	}
	v := c.checkSchedule(fp, width, c.docs[k])
	c.checked[memo] = v
	return v
}

func (c *checker) checkSchedule(fp string, width int, doc []byte) docVerdict {
	s := c.socs[fp]
	if s == nil {
		return docVerdict{err: fmt.Errorf("unknown SOC %s", fp)}
	}
	var sch *sched.Schedule
	var err error
	c.measure("schedio.load", func() { sch, err = schedio.Load(bytes.NewReader(doc), s) })
	if err != nil {
		return docVerdict{err: err}
	}
	c.measure("sched.invariants", func() { err = sched.CheckInvariants(s, sch) })
	if err != nil {
		return docVerdict{err: err}
	}
	if sch.TAMWidth != width {
		return docVerdict{err: fmt.Errorf("%s: schedule for W=%d, asked W=%d", s.Name, sch.TAMWidth, width)}
	}
	bound, err := c.lowerBound(fp, width)
	if err != nil {
		return docVerdict{err: err}
	}
	if sch.Makespan < bound {
		return docVerdict{err: fmt.Errorf("%s W=%d: makespan %d below LB %d", s.Name, width, sch.Makespan, bound)}
	}
	return docVerdict{gap: gapPct(sch.Makespan, bound)}
}

// effective checks one effective-width answer for its window.
func (c *checker) effective(r *request, k docKey) docVerdict {
	memo := fmt.Sprintf("%x|%s|%d-%d", k, r.SOC, r.Lo, r.Hi)
	if v, ok := c.checked[memo]; ok {
		return v
	}
	v := c.checkEffective(r, c.docs[k])
	c.checked[memo] = v
	return v
}

func (c *checker) checkEffective(r *request, doc []byte) docVerdict {
	var eff datavol.Effective
	if err := json.Unmarshal(doc, &eff); err != nil {
		return docVerdict{err: fmt.Errorf("decode effective: %w", err)}
	}
	if eff.TAMWidth < r.Lo || eff.TAMWidth > r.Hi {
		return docVerdict{err: fmt.Errorf("effective width %d outside [%d,%d]", eff.TAMWidth, r.Lo, r.Hi)}
	}
	if eff.Gamma != 0.5 || eff.Volume != int64(eff.TAMWidth)*eff.Time {
		return docVerdict{err: fmt.Errorf("effective answer inconsistent: %+v", eff)}
	}
	bound, err := c.lowerBound(r.SOC, eff.TAMWidth)
	if err != nil {
		return docVerdict{err: err}
	}
	if eff.Time < bound {
		return docVerdict{err: fmt.Errorf("effective W=%d: time %d below LB %d", eff.TAMWidth, eff.Time, bound)}
	}
	return docVerdict{gap: gapPct(eff.Time, bound)}
}

// tally is the checked outcome of a run.
type tally struct {
	requests   int // completed requests
	okRequests int // answered 200 with every output passing its checks
	attempted  int // schedules asked for (see request.units)
	failed     int // schedules refused, failed or failing a check
	gaps       []float64
	latencies  []float64 // ms on the process CPU clock, every completed request
	batchItems int
	batchHits  int
	firstErr   error
}

// check validates every completed response of a run. Quality gaps are
// collected over the plan's prefix only, which every run completes, so
// makespan_gap_pct does not depend on how far a run got.
func (c *checker) check(p *plan, res []response) tally {
	var t tally
	fail := func(n int, err error) {
		t.failed += n
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
	for i := range res {
		r, resp := &p.Requests[i], &res[i]
		if !resp.done {
			continue
		}
		t.requests++
		t.attempted += r.units()
		t.latencies = append(t.latencies, ms(resp.cpu))
		if resp.err != nil || resp.status != http.StatusOK {
			fail(r.units(), fmt.Errorf("request %d (%s): status %d: %v", i, r.Kind, resp.status, resp.err))
			continue
		}
		if r.Kind == kindBatch {
			t.batchItems += len(resp.items)
			t.batchHits += countTrue(resp.hits)
			if len(resp.items) != len(r.Items) {
				fail(r.units(), fmt.Errorf("request %d: %d batch items answered, %d sent", i, len(resp.items), len(r.Items)))
				continue
			}
		}
		bad := 0
		for j, k := range resp.docs {
			var v docVerdict
			switch {
			case r.Kind == kindEffective:
				v = c.effective(r, k)
			case r.Kind == kindBatch && resp.items[j] != http.StatusOK:
				v.err = fmt.Errorf("batch item %d: status %d", j, resp.items[j])
			default:
				v = c.schedule(r.Items[j].SOC, r.Items[j].Params.TAMWidth, k)
			}
			if v.err != nil {
				n := 1
				if r.Kind == kindEffective {
					n = r.units()
				}
				bad += n
				fail(n, fmt.Errorf("request %d (%s): %w", i, r.Kind, v.err))
				continue
			}
			if i < p.Prefix {
				t.gaps = append(t.gaps, v.gap)
			}
		}
		if bad == 0 {
			t.okRequests++
		}
	}
	return t
}

// endToEnd runs one measured workload run with tracing off and returns
// the end-to-end metrics and the run's wall and CPU time. Times are taken
// on the process CPU clock, which a hypervisor's steal does not advance,
// and scaled by the run's calibration (see calib.go) to the reference host.
func endToEnd(p *plan, d time.Duration) (metrics, tally, loadResult, error) {
	// The heap before any service exists holds the benchmark's own request
	// list and the calibration inputs; retained_heap_mb counts only what the
	// service adds to it.
	cal := newCalibrator()
	var base runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)

	var e *env
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		if e != nil {
			e.close()
		}
		runtime.GC() // collect the last round's service outside the timing
		for i := 0; i < setupSamples; i++ {
			cal.sample()
		}
		// Each build is scaled by the samples just before it: set-up is
		// short, and the host's speed at that moment is what it paid.
		k := refKernelMS / meanMS(cal.samples[len(cal.samples)-setupSamples:])
		c0 := cpuNow()
		var err error
		if e, err = newEnv(p, nil); err != nil {
			return nil, tally{}, loadResult{}, err
		}
		setups = append(setups, (cpuNow()-c0).Seconds()*k)
	}
	defer e.close()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	// The answers stay in this closure, so they are garbage once it returns
	// and retained_heap_mb below measures what the service holds: its
	// planners and result cache.
	t, run := func() (tally, loadResult) {
		res := drive(e, p, cal, d)
		runtime.ReadMemStats(&after)
		t := newChecker(e.socs, res.docs).check(p, res.responses)
		return t, loadResult{wall: res.wall, cpu: res.cpu}
	}()
	sort.Float64s(t.latencies)
	sort.Float64s(t.gaps)
	runtime.GC()
	var held runtime.MemStats
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(p)   // the request list and the calibration inputs are
	runtime.KeepAlive(cal) // in base, so they must be in held
	run.cal = cal
	k, kl := cal.scale(), cal.latencyScale()
	cpu := run.cpu.Seconds() * k
	v := map[string]float64{
		"setup_s":          median(setups),
		"throughput_rps":   float64(t.okRequests) / cpu,
		"items_per_s":      float64(t.attempted-t.failed) / cpu,
		"latency_p50_ms":   quantile(t.latencies, 0.5) * kl,
		"latency_p90_ms":   quantile(t.latencies, 0.9) * kl,
		"ok_pct":           100 * float64(t.attempted-t.failed) / float64(t.attempted),
		"makespan_gap_pct": mean(t.gaps), // gaps are sorted: the sum is order-free
		"alloc_kb_per_req": float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(t.requests),
		"retained_heap_mb": (float64(held.HeapAlloc) - float64(base.HeapAlloc)) / (1 << 20),
	}
	m := metrics{}
	for _, e := range endToEndMetrics {
		m[e.name] = metric{v[e.name], e.unit}
	}
	return m, t, run, nil
}
