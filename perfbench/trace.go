package main

import (
	"bytes"
	"context"
	"crypto/sha256"
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
	"repro/internal/socfile"
	"repro/internal/wrapper"
)

// The traced run measures layers from outside the program: it times calls
// into each module's public functions and keeps the spans in memory until
// the run ends. Each request of the plan's prefix is sent once over HTTP,
// with the handler's ServeHTTP timed by a wrapper, and then — when the
// service did library work for it (a cache miss, or any effective-width
// request) — replayed straight through the library layers. The replay's
// schedule bytes must equal the HTTP response bytes, which proves it
// repeated the service's work; its layer durations are then attached under
// the request's ServeHTTP span, so
//
//	service.transport = round trip − ServeHTTP
//	service.handler   = ServeHTTP − the library work replayed for it
//
// A request's span tree is rooted at "request", which also holds the
// client's output checks. A span's self time is its duration minus its
// children's, and a layer's self time is the sum over its spans, so the
// layers' self times plus the roots' own (unattributed_ms) add up to the
// traced total.

// layers lists the per-layer spans in reporting order.
var layers = []string{
	"wrapper.design",         // wrapper.DesignWrapper, every core × width ≤ 64
	"pareto.build",           // sched.New: Pareto staircases and cached designs
	"service.registry.build", // first Registry().Planner call per SOC
	"service.transport",      // loopback round trip minus ServeHTTP
	"service.handler",        // ServeHTTP minus the library work it did
	"sched.portfolio",        // portfolio backend via Optimizer.ScheduleBackend
	"anneal.search",          // anneal leg, timed alone
	"rectpack.pack",          // rectpack and preempt-rectpack legs, timed alone
	"sched.classic",          // classic leg, grid sweep or single run
	"sched.verify",           // Optimizer.Verify of each portfolio leg
	"schedio.encode",         // schedio.Save of the answered schedule
	"datavol.sweep",          // datavol.RunWithContext
	"datavol.width",          // Optimizer.SweepBest at one width
	"schedio.load",           // output check: schedio.Load, which re-verifies
	"sched.invariants",       // output check: sched.CheckInvariants
	"lb.compute",             // output check: lb.Compute
}

// legLayer maps a portfolio racer to its layer.
var legLayer = map[string]string{
	"anneal":           "anneal.search",
	"classic":          "sched.classic",
	"rectpack":         "rectpack.pack",
	"preempt-rectpack": "rectpack.pack",
}

// racers are the backends the portfolio races, in its race order.
var racers = []string{"anneal", "classic", "preempt-rectpack", "rectpack"}

// span is one node of a request's layer tree.
type span struct {
	name string
	dur  time.Duration
	kids []*span
}

func (s *span) add(name string, d time.Duration) *span {
	k := &span{name: name, dur: d}
	s.kids = append(s.kids, k)
	return k
}

// self is the span's duration minus its children's. It is negative where
// a replayed child ran longer than the service's measured time for the
// span it is attached under.
func (s *span) self() time.Duration {
	d := s.dur
	for _, k := range s.kids {
		d -= k.dur
	}
	return d
}

// timeIt runs f and returns how long it took.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// layerStats accumulates one layer's spans.
type layerStats struct {
	durs []float64 // ms
	self time.Duration
}

// tracer holds a traced run's state: the optimizers the replay uses (one
// per SOC, built by the pareto.build probe) and every root span.
type tracer struct {
	opts   map[string]*sched.Optimizer
	roots  []*span
	parity int // replayed answers compared byte for byte
}

// probeSetup records the set-up layers of every SOC: the registry's first
// Planner build (measured by newEnv), a separate sched.New, and a separate
// wrapper design of every core at every width up to the cap.
func (tr *tracer) probeSetup(e *env, p *plan) error {
	tr.opts = make(map[string]*sched.Optimizer)
	for i, s := range p.SOCs {
		var opt *sched.Optimizer
		var err error
		build := timeIt(func() { opt, err = sched.New(s, sched.DefaultMaxWidth) })
		if err != nil {
			return err
		}
		var design time.Duration
		for _, c := range s.Cores {
			for w := 1; w <= sched.DefaultMaxWidth; w++ {
				design += timeIt(func() { _, err = wrapper.DesignWrapper(c, w) })
				if err != nil {
					return err
				}
			}
		}
		root := &span{name: "setup", dur: e.builds[i]}
		root.add("service.registry.build", e.builds[i]).add("pareto.build", build).add("wrapper.design", design)
		tr.roots = append(tr.roots, root)
		tr.opts[socfile.Fingerprint(s)] = opt
	}
	return nil
}

// replayItem repeats one schedule item's service work through the library
// under handler and returns the encoded document.
func (tr *tracer) replayItem(handler *span, it item) ([]byte, error) {
	opt := tr.opts[it.SOC]
	params := it.Params.Options()
	ctx := context.Background()
	var sch *sched.Schedule
	var err error
	switch {
	case !it.Best && sched.IsDefaultBackend(params.Backend):
		handler.add("sched.classic", timeIt(func() { sch, err = opt.Run(params) }))
	case params.Backend == "portfolio":
		sch, err = tr.replayPortfolio(handler, opt, params)
	default:
		handler.add("sched.classic", timeIt(func() { sch, err = opt.ScheduleBackend(ctx, params) }))
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	handler.add("schedio.encode", timeIt(func() { err = schedio.Save(&buf, sch) }))
	return buf.Bytes(), err
}

// replayPortfolio times the portfolio call, then each leg it raced timed
// alone in race order with its Verify, stopping where the race stops: at
// the first leg that reaches LB(W).
func (tr *tracer) replayPortfolio(handler *span, opt *sched.Optimizer, params sched.Params) (*sched.Schedule, error) {
	ctx := context.Background()
	var sch *sched.Schedule
	var err error
	pf := handler.add("sched.portfolio", timeIt(func() { sch, err = opt.ScheduleBackend(ctx, params) }))
	if err != nil {
		return nil, err
	}
	d := params.Defaults()
	floor, err := lb.FromSets(opt.ParetoSets(), d.TAMWidth, d.MaxWidth)
	if err != nil {
		return nil, err
	}
	for _, name := range racers {
		b, err := sched.BackendByName(name)
		if err != nil {
			return nil, err
		}
		if _, declined := sched.BackendDeclines(b, params); declined {
			continue
		}
		leg := params
		leg.Backend = name
		var ls *sched.Schedule
		pf.add(legLayer[name], timeIt(func() { ls, err = opt.ScheduleBackend(ctx, leg) }))
		if err != nil {
			return nil, fmt.Errorf("leg %s: %w", name, err)
		}
		pf.add("sched.verify", timeIt(func() { err = opt.Verify(ls) }))
		if err != nil {
			return nil, fmt.Errorf("leg %s: %w", name, err)
		}
		if ls.Makespan <= floor.Value() {
			break
		}
	}
	return sch, nil
}

// replayEffective repeats an effective-width request: the datavol sweep,
// each width's classic SweepBest timed alone, and the pick, encoded the
// way the service encodes JSON answers.
func (tr *tracer) replayEffective(handler *span, r *request) ([]byte, error) {
	opt := tr.opts[r.SOC]
	var sw *datavol.Sweep
	var err error
	cfg := datavol.Config{WidthLo: r.Lo, WidthHi: r.Hi, Workers: 1}
	sweep := handler.add("datavol.sweep", timeIt(func() { sw, err = datavol.RunWithContext(context.Background(), opt, cfg) }))
	if err != nil {
		return nil, err
	}
	for w := r.Lo; w <= r.Hi; w++ {
		sweep.add("datavol.width", timeIt(func() { _, err = opt.SweepBest(sched.Params{TAMWidth: w, Workers: 1}, nil, nil) }))
		if err != nil {
			return nil, err
		}
	}
	eff, err := sw.EffectiveWidth(0.5)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err = enc.Encode(eff)
	return buf.Bytes(), err
}

// traceResult is the per-layer outcome of a traced run.
type traceResult struct {
	metrics metrics
	largest string // layer with the largest self time
}

// traced runs the plan's prefix once traced and then once untraced, both
// sequentially from one client on a fresh service, and returns the
// per-layer metrics.
func traced(p *plan) (traceResult, error) {
	reqs := p.Requests[:p.Prefix]
	serve := make(chan time.Duration, 1) // one request in flight at a time
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			d := timeIt(func() { h.ServeHTTP(w, r) })
			if r.Method == http.MethodPost && r.URL.Path != "/v1/socs" {
				serve <- d // a scheduling request, not an upload
			}
		})
	}
	e, err := newEnv(p, wrap)
	if err != nil {
		return traceResult{}, err
	}
	defer e.close()
	tr := &tracer{}
	if err := tr.probeSetup(e, p); err != nil {
		return traceResult{}, err
	}

	docs := make(map[docKey][]byte)
	chk := newChecker(e.socs, docs)
	var roundTrips time.Duration
	var docBytes, docCount, batchItems, batchHits int
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range reqs {
		r := &reqs[i]
		root := &span{name: "request"}
		start := time.Now()
		res := e.call(r, docs, true)
		if res.err != nil || res.status != http.StatusOK {
			return traceResult{}, fmt.Errorf("traced request %d: status %d: %v", i, res.status, res.err)
		}
		roundTrips += res.latency
		rtt := root.add("service.transport", res.latency)
		handler := rtt.add("service.handler", <-serve)

		t0 := time.Now()
		if err := tr.replay(handler, r, res, docs); err != nil {
			return traceResult{}, fmt.Errorf("replay request %d: %w", i, err)
		}
		probe := time.Since(t0) // the replay is excluded from the root

		chk.timed = func(layer string, d time.Duration) { root.add(layer, d) }
		t := chk.check(&plan{Requests: reqs[i : i+1], Prefix: 1}, []response{res})
		if t.firstErr != nil {
			return traceResult{}, fmt.Errorf("request %d: %w", i, t.firstErr)
		}
		if r.Kind != kindEffective {
			for _, k := range res.docs {
				docBytes += len(docs[k])
				docCount++
			}
		}
		if r.Kind == kindBatch {
			batchItems += len(res.hits)
			batchHits += countTrue(res.hits)
		}
		root.dur = time.Since(start) - probe
		tr.roots = append(tr.roots, root)
	}
	runtime.ReadMemStats(&after)

	out := tr.layerMetrics()
	m := out.metrics
	total := float64(0)
	for _, r := range tr.roots {
		total += ms(r.dur)
	}
	selfSum := float64(0)
	for _, name := range layers {
		selfSum += m[name+".self_ms"].Value
	}
	reg := e.svc.Registry().Stats()
	cache := e.svc.Cache().Stats()
	sm, err := e.metrics()
	if err != nil {
		return traceResult{}, err
	}
	race := sched.PortfolioStats()
	for _, name := range racers {
		st := race[name]
		m["sched.portfolio.win_share."+name] = metric{ratio(st.Won, st.Won+st.Lost+st.Failed+st.TimedOut), "ratio"}
	}
	m["sched.portfolio.overhead_ms"] = m["sched.portfolio.self_ms"]
	m["service.registry.hit_ratio"] = metric{ratio(reg.Hits, reg.Hits+reg.Builds), "ratio"}
	m["service.cache.hit_ratio"] = metric{ratio(cache.Hits, cache.Hits+cache.Misses), "ratio"}
	m["service.cache.evictions"] = metric{float64(cache.Evictions), "count"}
	m["service.cache.shared"] = metric{float64(cache.SingleflightShared), "count"}
	m["service.batch.cache_hit_ratio"] = metric{ratio(int64(batchHits), int64(batchItems)), "ratio"}
	m["service.shed"] = metric{float64(sm.Shed), "count"}
	m["service.timeouts"] = metric{float64(sm.Timeouts), "count"}
	m["schedio.doc_kb"] = metric{float64(docBytes) / 1024 / float64(max(docCount, 1)), "KiB"}
	m["runtime.gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
	m["runtime.gc_pause_ms"] = metric{ms(time.Duration(after.PauseTotalNs - before.PauseTotalNs)), "ms"}
	m["trace.requests"] = metric{float64(len(reqs)), "count"}
	m["trace.parity_checked"] = metric{float64(tr.parity), "count"}
	m["trace.total_ms"] = metric{total, "ms"}
	m["unattributed_ms"] = metric{total - selfSum, "ms"}

	// The untraced reference runs last, on its own fresh service, once every
	// counter of the traced one has been read.
	e.close()
	untraced, err := untracedRoundTrips(p, reqs)
	if err != nil {
		return traceResult{}, err
	}
	m["trace.untraced_ms"] = metric{ms(untraced), "ms"}
	m["trace.overhead_pct"] = metric{100 * (float64(roundTrips) - float64(untraced)) / float64(untraced), "%"}
	return out, nil
}

// untracedRoundTrips sends reqs sequentially to a fresh, unwrapped service
// and returns the summed round trips: the reference the traced run's
// overhead is measured against.
func untracedRoundTrips(p *plan, reqs []request) (time.Duration, error) {
	e, err := newEnv(p, nil)
	if err != nil {
		return 0, err
	}
	defer e.close()
	var total time.Duration
	scratch := make(map[docKey][]byte)
	for i := range reqs {
		res := e.call(&reqs[i], scratch, false)
		if res.err != nil || res.status != http.StatusOK {
			return 0, fmt.Errorf("untraced request %d: status %d: %v", i, res.status, res.err)
		}
		total += res.latency
	}
	return total, nil
}

// replay repeats the service's library work for one answered request and
// checks the replayed bytes against the response.
func (tr *tracer) replay(handler *span, r *request, res response, docs map[docKey][]byte) error {
	if r.Kind == kindEffective {
		doc, err := tr.replayEffective(handler, r)
		if err != nil {
			return err
		}
		return tr.same(doc, res.raw)
	}
	for j, it := range r.Items {
		if res.hits[j] {
			continue // the service did no library work for a cache hit
		}
		doc, err := tr.replayItem(handler, it)
		if err != nil {
			return err
		}
		if r.Kind == kindBatch {
			// A batch re-indents each document inside its envelope: compare
			// the compact forms.
			var buf bytes.Buffer
			if err := json.Compact(&buf, doc); err != nil {
				return err
			}
			if err := tr.same(buf.Bytes(), docs[res.docs[j]]); err != nil {
				return fmt.Errorf("batch item %d: %w", j, err)
			}
			continue
		}
		if err := tr.same(doc, res.raw); err != nil {
			return err
		}
	}
	return nil
}

func (tr *tracer) same(replayed, served []byte) error {
	tr.parity++
	if !bytes.Equal(replayed, served) {
		return fmt.Errorf("replayed bytes (sha %x) differ from the HTTP response (sha %x)",
			sha256.Sum256(replayed), sha256.Sum256(served))
	}
	return nil
}

// layerMetrics folds every span into per-layer call counts, median and
// total durations and self times.
func (tr *tracer) layerMetrics() traceResult {
	stats := make(map[string]*layerStats)
	var walk func(s *span)
	walk = func(s *span) {
		st := stats[s.name]
		if st == nil {
			st = &layerStats{}
			stats[s.name] = st
		}
		st.durs = append(st.durs, ms(s.dur))
		st.self += s.self()
		for _, k := range s.kids {
			walk(k)
		}
	}
	for _, r := range tr.roots {
		walk(r)
	}
	m := metrics{}
	var largest string
	var largestSelf time.Duration
	for _, name := range layers {
		st := stats[name]
		if st == nil {
			st = &layerStats{}
		}
		sort.Float64s(st.durs)
		total := 0.0
		for _, d := range st.durs {
			total += d
		}
		m[name+".calls"] = metric{float64(len(st.durs)), "count"}
		m[name+".median_ms"] = metric{quantile(st.durs, 0.5), "ms"}
		m[name+"_ms"] = metric{total, "ms"}
		m[name+".self_ms"] = metric{ms(st.self), "ms"}
		if st.self > largestSelf {
			largest, largestSelf = name, st.self
		}
	}
	return traceResult{metrics: m, largest: largest}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}
