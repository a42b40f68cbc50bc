package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/bench"
	"repro/internal/corpus"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/soc"
	"repro/internal/socfile"
)

// Request kinds, one per service route the workloads drive.
const (
	kindSchedule  = "schedule"  // POST /v1/schedule
	kindBest      = "best"      // POST /v1/schedule/best
	kindBatch     = "batch"     // POST /v1/batch
	kindEffective = "effective" // POST /v1/effective
)

var kindPath = map[string]string{
	kindSchedule:  "/v1/schedule",
	kindBest:      "/v1/schedule/best",
	kindBatch:     "/v1/batch",
	kindEffective: "/v1/effective",
}

// item is one schedule the service is asked for: a SOC fingerprint, the
// wire params, and the mode bit. A single request carries one item, a batch
// several.
type item struct {
	SOC    string
	Params service.ParamsJSON
	Best   bool
}

// request is one generated HTTP request plus the decoded form the output
// checks and the library replay read.
type request struct {
	Kind  string
	Body  []byte
	Items []item // schedule, best, batch
	// SOC, Lo, Hi describe an effective-width request.
	SOC    string
	Lo, Hi int
}

// units is how many schedules the request delivers: one per item, or one
// per swept width for an effective-width request.
func (r *request) units() int {
	if r.Kind == kindEffective {
		return r.Hi - r.Lo + 1
	}
	return len(r.Items)
}

// plan is a workload's generated traffic: the SOCs it uploads and the
// request list, of which the first Prefix requests are always completed
// (schedule quality is averaged over them, and the traced run replays them).
// The list repeats its traffic mix every Pass requests; a run stops on a
// pass boundary.
type plan struct {
	SOCs     []*soc.SOC
	Requests []request
	Prefix   int
	Pass     int
}

// digest fingerprints the generated request list, so two runs can be shown
// to send identical traffic.
func (p *plan) digest() string {
	h := sha256.New()
	for i := range p.Requests {
		fmt.Fprintf(h, "%s\n%s\n", p.Requests[i].Kind, p.Requests[i].Body)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// catalog maps SOC fingerprints to the SOCs themselves. Requests address
// SOCs only by fingerprint: several corpus SOCs share a name, and a
// re-upload under a known name re-points that name.
type catalog struct {
	socs []*soc.SOC
	fps  map[string]bool
}

func (c *catalog) add(s *soc.SOC) string {
	fp := socfile.Fingerprint(s)
	if c.fps == nil {
		c.fps = make(map[string]bool)
	}
	if !c.fps[fp] {
		c.fps[fp] = true
		c.socs = append(c.socs, s)
	}
	return fp
}

// buildPlan generates a workload's traffic from its seed. The seed decides
// request order and every random draw; nothing else does.
func buildPlan(workload string, seed int64, seconds int) (*plan, error) {
	switch workload {
	case "cold-portfolio":
		return coldPortfolio(seed, seconds)
	case "hot-mix":
		return hotMix(seed, seconds)
	case "sweep-effective":
		return sweepEffective(seed, seconds)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// wireParams converts resolved library params to the wire form, pinned to
// one worker so at most one scheduling thread runs per client.
func wireParams(p sched.Params) service.ParamsJSON {
	return service.ParamsJSON{
		TAMWidth:        p.TAMWidth,
		MaxWidth:        p.MaxWidth,
		Percent:         p.Percent,
		Delta:           p.Delta,
		PowerMax:        p.PowerMax,
		InsertSlack:     p.InsertSlack,
		MaxPreemptions:  p.MaxPreemptions,
		DisableWidening: p.DisableWidening,
		IgnoreHierarchy: p.IgnoreHierarchy,
		Workers:         1,
		Backend:         p.Backend,
		Seed:            p.Seed,
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs and maps always marshal
	}
	return b
}

func singleRequest(kind string, it item) request {
	body := mustJSON(service.Request{SOC: it.SOC, Params: it.Params})
	return request{Kind: kind, Body: body, Items: []item{it}}
}

// coldPortfolio sends /v1/schedule/best with the portfolio backend for
// every corpus scenario at three widths inside its frozen window. Every
// pass asks for the same schedules; only a per-racer deadline far beyond
// any race (passDeadlineMS plus the pass number) differs between passes.
// The deadline is part of the result-cache key, so every request misses,
// while the work stays the same: changing the anneal seed instead would
// change whether anneal reaches LB(W) and ends the race early, and so the
// work itself. The run seed orders each pass.
func coldPortfolio(seed int64, seconds int) (*plan, error) {
	var cat catalog
	var base []item
	seen := make(map[string]bool)
	for _, sc := range corpus.All() {
		if sc.Params.IgnoreHierarchy {
			// A schedule document does not record IgnoreHierarchy, so
			// schedio.Load re-verifies it against the hierarchy constraints
			// the run ignored and rejects it; the output check cannot pass.
			continue
		}
		s := sc.Build()
		fp := cat.add(s)
		p, err := sc.ResolveParams(s)
		if err != nil {
			return nil, err
		}
		p.Backend = "portfolio"
		for _, w := range quartileWidths(sc.WidthLo, sc.WidthHi) {
			p.TAMWidth = w
			key := fp + "|" + p.CanonicalKey()
			if seen[key] {
				continue
			}
			seen[key] = true
			base = append(base, item{SOC: fp, Params: wireParams(p), Best: true})
		}
	}
	passes := seconds + 2 // a pass takes well over a second
	reqs := make([]request, 0, passes*len(base))
	for pass := 0; pass < passes; pass++ {
		rng := rand.New(rand.NewSource(seed + int64(pass)))
		for _, i := range rng.Perm(len(base)) {
			it := base[i]
			it.Params.BackendTimeoutMS = passDeadlineMS + int64(pass)
			reqs = append(reqs, singleRequest(kindBest, it))
		}
	}
	return &plan{SOCs: cat.socs, Requests: reqs, Prefix: len(base), Pass: len(base)}, nil
}

// passDeadlineMS is the per-racer deadline of cold-portfolio requests: ten
// minutes, where the slowest race takes about a second.
const passDeadlineMS = 600_000

// quartileWidths returns the widths at the quarter points of [lo, hi].
func quartileWidths(lo, hi int) []int {
	n := hi - lo
	return []int{lo + n/4, lo + n/2, lo + 3*n/4}
}

// hotMixSOCs are the built-ins the hot-mix stream draws from.
var hotMixSOCs = []string{"demo8", "d695", "p93791like"}

// hotMixPrefix is the number of leading hot-mix requests every run
// completes and the traced run replays.
const hotMixPrefix = 2000

// hotMix is a socload-style stream: 15% /v1/batch of 8 items, otherwise
// /v1/schedule or (one in four) /v1/schedule/best, all with the classic
// backend. 80% of requests draw every item from a four-entry hot params
// set; the rest take the next entries of a seeded permutation of distinct
// cold (SOC, width, α, δ) tuples, so cold items never repeat until the
// permutation is used up. Grid-swept best schedules cost up to a hundred
// single runs, so cold ones would make throughput hinge on which widths a
// seed drew: best requests are always hot.
func hotMix(seed int64, seconds int) (*plan, error) {
	var cat catalog
	fps := make([]string, len(hotMixSOCs))
	for i, name := range hotMixSOCs {
		s, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		fps[i] = cat.add(s)
	}
	hot := []service.ParamsJSON{
		{TAMWidth: 16, Workers: 1},
		{TAMWidth: 24, Workers: 1},
		{TAMWidth: 32, Percent: 10, Delta: 1, Workers: 1},
		{TAMWidth: 48, Workers: 1},
	}
	const (
		coldWidthLo, coldWidths = 8, 128
		percents, deltas        = 10, 4
	)
	rng := rand.New(rand.NewSource(seed))
	cold := rng.Perm(len(fps) * coldWidths * percents * deltas)
	next := 0
	draw := func(isHot, best bool) item {
		if isHot {
			return item{SOC: fps[rng.Intn(len(fps))], Params: hot[rng.Intn(len(hot))], Best: best}
		}
		c := cold[next%len(cold)]
		next++
		it := item{Params: service.ParamsJSON{Workers: 1, Delta: c % deltas}}
		c /= deltas
		it.Params.Percent = 1 + c%percents
		c /= percents
		it.Params.TAMWidth = coldWidthLo + c%coldWidths
		it.SOC = fps[c/coldWidths]
		return it
	}
	n := hotMixPrefix + seconds*6000
	reqs := make([]request, n)
	for i := range reqs {
		isHot := rng.Float64() < 0.8
		if rng.Float64() < 0.15 {
			items := make([]item, 8)
			wire := make([]service.BatchItemJSON, len(items))
			for j := range items {
				items[j] = draw(isHot, false)
				wire[j] = service.BatchItemJSON{SOC: items[j].SOC, Params: items[j].Params}
			}
			body := mustJSON(service.BatchRequest{Items: wire, Workers: 1})
			reqs[i] = request{Kind: kindBatch, Body: body, Items: items}
			continue
		}
		kind := kindSchedule
		if rng.Float64() < 0.25 {
			kind = kindBest
		}
		reqs[i] = singleRequest(kind, draw(isHot || kind == kindBest, kind == kindBest))
	}
	return &plan{SOCs: cat.socs, Requests: reqs, Prefix: hotMixPrefix, Pass: 1}, nil
}

// sweepEffective sends /v1/effective (γ = 0.5) over every non-monster
// corpus scenario. Each scenario's window, minus widths an earlier
// scenario on the same SOC already claimed, is split into three
// contiguous sub-windows, so no two requests of a pass sweep the same
// (SOC, width). Passes repeat the same content in a seeded order; the
// route has no result cache to hit.
func sweepEffective(seed int64, seconds int) (*plan, error) {
	var cat catalog
	var base []request
	claimed := make(map[string]map[int]bool)
	for _, sc := range corpus.All() {
		if strings.HasPrefix(sc.Name, "monster") {
			continue
		}
		fp := cat.add(sc.Build())
		if claimed[fp] == nil {
			claimed[fp] = make(map[int]bool)
		}
		var free []int
		for w := sc.WidthLo; w <= sc.WidthHi; w++ {
			if !claimed[fp][w] {
				free = append(free, w)
				claimed[fp][w] = true
			}
		}
		for _, win := range splitWindows(free, 3) {
			gamma := 0.5
			body := mustJSON(service.Request{SOC: fp, Params: service.ParamsJSON{
				WidthLo: win[0], WidthHi: win[1], Gamma: &gamma, Workers: 1,
			}})
			base = append(base, request{Kind: kindEffective, Body: body, SOC: fp, Lo: win[0], Hi: win[1]})
		}
	}
	passes := 2*seconds + 4 // a pass takes well over half a second
	reqs := make([]request, 0, passes*len(base))
	for pass := 0; pass < passes; pass++ {
		rng := rand.New(rand.NewSource(seed + int64(pass)))
		for _, i := range rng.Perm(len(base)) {
			reqs = append(reqs, base[i])
		}
	}
	return &plan{SOCs: cat.socs, Requests: reqs, Prefix: len(base), Pass: len(base)}, nil
}

// splitWindows cuts a sorted width list into parts chunks of near-equal
// size, then splits any chunk spanning a gap, and returns each contiguous
// run as an inclusive [lo, hi] window.
func splitWindows(widths []int, parts int) [][2]int {
	var out [][2]int
	for p := 0; p < parts; p++ {
		chunk := widths[p*len(widths)/parts : (p+1)*len(widths)/parts]
		for i := 0; i < len(chunk); {
			j := i
			for j+1 < len(chunk) && chunk[j+1] == chunk[j]+1 {
				j++
			}
			out = append(out, [2]int{chunk[i], chunk[j]})
			i = j + 1
		}
	}
	return out
}
