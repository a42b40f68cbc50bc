package corpus

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"

	"repro/internal/datavol"
	"repro/internal/lb"
	"repro/internal/sched"
	"repro/internal/schedio"
	"repro/internal/service"
	"repro/internal/soc"
)

// Layer file names, one golden file per layer per scenario.
const (
	LayerSchedule         = "schedule.json"          // schedio bytes of the frozen schedule
	LayerSweep            = "sweep.json"             // datavol.Sweep over [WidthLo, WidthHi]
	LayerDataVolume       = "datavol.csv"            // W, T(W), D(W), C(0.5, W) curve
	LayerEffective        = "effective.json"         // effective widths across Gammas
	LayerLowerBounds      = "lowerbounds.txt"        // LB(W) decomposition across LBWidths
	LayerServiceSchedule  = "service_schedule.json"  // socserved /v1/schedule[/best] response
	LayerServiceEffective = "service_effective.json" // socserved /v1/effective response
)

// Layers lists every golden layer in replay order.
func Layers() []string {
	return []string{
		LayerSchedule,
		LayerSweep,
		LayerDataVolume,
		LayerEffective,
		LayerLowerBounds,
		LayerServiceSchedule,
		LayerServiceEffective,
	}
}

// ResolveParams returns the scenario's effective scheduling parameters:
// Params with the PowerPct and PreemptLarger knobs applied against the
// built SOC and Workers pinned to 1 (host-independent replay).
func (sc Scenario) ResolveParams(s *soc.SOC) (sched.Params, error) {
	p := sc.Params
	p.Workers = 1
	if sc.PowerPct > 0 {
		p.PowerMax = sched.DefaultPowerBudget(s, sc.PowerPct)
	}
	if sc.PreemptLarger > 0 {
		mp, err := sched.LargerCorePreemptions(s, sched.DefaultMaxWidth, sc.PreemptLarger)
		if err != nil {
			return sched.Params{}, fmt.Errorf("corpus: %s: preemption policy: %w", sc.Name, err)
		}
		p.MaxPreemptions = mp
	}
	return p, nil
}

// Replay runs the scenario through every layer of the stack and returns
// the canonical bytes per layer (keyed by the Layer* file names). The
// result is deterministic: identical on every host, every run.
func Replay(sc Scenario) (map[string][]byte, error) {
	s, params, opt, err := setUp(sc)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(Layers()))

	// Layer 1: the frozen schedule, serialized exactly as schedio emits it.
	if _, out[LayerSchedule], err = schedule(sc, opt, params, ""); err != nil {
		return nil, err
	}

	// Layer 2: the width sweep T(W)/D(W) under the scenario's parameters.
	sw, err := datavol.RunWith(opt, datavol.Config{
		WidthLo: sc.WidthLo, WidthHi: sc.WidthHi,
		Params: params, Workers: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: sweep: %w", sc.Name, err)
	}
	out[LayerSweep], err = marshalJSON(sw)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", sc.Name, err)
	}

	// Layer 3: the data-volume curve as CSV (the Fig. 9 plot data).
	var buf bytes.Buffer
	buf.WriteString("tamWidth,timeCycles,volumeBits,cost0.5\n")
	for _, smp := range sw.Samples {
		fmt.Fprintf(&buf, "%d,%d,%d,%s\n", smp.TAMWidth, smp.Time, smp.Volume,
			strconv.FormatFloat(sw.Cost(0.5, smp), 'g', -1, 64))
	}
	out[LayerDataVolume] = append([]byte(nil), buf.Bytes()...)

	// Layer 4: effective TAM widths across the frozen γ grid.
	effs := make([]datavol.Effective, 0, len(Gammas))
	for _, g := range Gammas {
		eff, err := sw.EffectiveWidth(g)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: effective γ=%v: %w", sc.Name, g, err)
		}
		effs = append(effs, eff)
	}
	out[LayerEffective], err = marshalJSON(effs)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: %w", sc.Name, err)
	}

	// Layer 5: lower-bound decompositions across the frozen width grid.
	buf.Reset()
	for _, w := range LBWidths {
		b, err := lb.Compute(s, w, sched.DefaultMaxWidth)
		if err != nil {
			return nil, fmt.Errorf("corpus: %s: lower bound W=%d: %w", sc.Name, w, err)
		}
		fmt.Fprintf(&buf, "W=%d LB=%d area=%d bottleneck=%d minArea=%d\n",
			w, b.Value(), b.AreaBound, b.BottleneckBound, b.MinArea)
	}
	out[LayerLowerBounds] = append([]byte(nil), buf.Bytes()...)

	// Layers 6-7: the socserved HTTP surface, replayed through httptest.
	if err := replayService(sc, s, params, out); err != nil {
		return nil, err
	}
	return out, nil
}

// setUp builds and validates the scenario's SOC, resolves its parameters
// and builds its optimizer: the set-up every replayed layer shares.
func setUp(sc Scenario) (*soc.SOC, sched.Params, *sched.Optimizer, error) {
	s := sc.Build()
	if err := s.Validate(); err != nil {
		return nil, sched.Params{}, nil, fmt.Errorf("corpus: %s: bad SOC: %w", sc.Name, err)
	}
	params, err := sc.ResolveParams(s)
	if err != nil {
		return nil, sched.Params{}, nil, err
	}
	opt, err := sched.New(s, sched.DefaultMaxWidth)
	if err != nil {
		return nil, sched.Params{}, nil, fmt.Errorf("corpus: %s: optimizer: %w", sc.Name, err)
	}
	return s, params, opt, nil
}

// schedule runs the scenario's schedule item under the named backend ("" =
// the default classic backend) and returns the schedule plus its schedio
// bytes. The classic default keeps Backend empty so the echoed Params —
// and with them the schedio bytes — stay identical to the frozen goldens.
func schedule(sc Scenario, opt *sched.Optimizer, params sched.Params, backend string) (*sched.Schedule, []byte, error) {
	if !sched.IsDefaultBackend(backend) {
		params.Backend = backend
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

// replayService uploads the SOC into a fresh socserved instance and
// freezes the /v1/schedule[/best] and /v1/effective response bytes.
func replayService(sc Scenario, s *soc.SOC, params sched.Params, out map[string][]byte) error {
	svc, err := service.New(service.Config{})
	if err != nil {
		return fmt.Errorf("corpus: %s: service: %w", sc.Name, err)
	}
	defer svc.Close()
	fp, err := svc.Registry().Add(s)
	if err != nil {
		return fmt.Errorf("corpus: %s: register SOC: %w", sc.Name, err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	schedPath := "/v1/schedule/best"
	if sc.SingleRun {
		schedPath = "/v1/schedule"
	}
	schedReq := map[string]any{
		"soc": fp,
		"params": service.ParamsJSON{
			TAMWidth:        params.TAMWidth,
			MaxWidth:        params.MaxWidth,
			Percent:         params.Percent,
			Delta:           params.Delta,
			PowerMax:        params.PowerMax,
			InsertSlack:     params.InsertSlack,
			MaxPreemptions:  params.MaxPreemptions,
			DisableWidening: params.DisableWidening,
			IgnoreHierarchy: params.IgnoreHierarchy,
			Workers:         1,
		},
	}
	out[LayerServiceSchedule], err = post(ts, sc.Name, schedPath, schedReq)
	if err != nil {
		return err
	}
	out[LayerServiceEffective], err = post(ts, sc.Name, "/v1/effective", map[string]any{
		"soc": fp,
		"params": map[string]any{
			"widthLo": sc.WidthLo,
			"widthHi": sc.WidthHi,
			"workers": 1,
		},
	})
	return err
}

func post(ts *httptest.Server, scenario, path string, body any) ([]byte, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: marshal %s request: %w", scenario, path, err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: POST %s: %w", scenario, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("corpus: %s: read %s response: %w", scenario, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("corpus: %s: POST %s: HTTP %d: %s", scenario, path, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// marshalJSON matches the repository's canonical JSON shape: two-space
// indentation with a trailing newline (schedio, writeJSON).
func marshalJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Diff compares golden bytes against replayed bytes and returns a readable
// description of the first divergence ("" when identical): the 1-based
// line number, the want/got lines, and the overall line counts.
func Diff(want, got []byte) string {
	if bytes.Equal(want, got) {
		return ""
	}
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("first diff at line %d:\n  golden: %s\n  replay: %s\n(golden %d lines, replay %d lines)",
				i+1, truncate(wl[i]), truncate(gl[i]), len(wl), len(gl))
		}
	}
	return fmt.Sprintf("line %d onward: golden has %d lines, replay has %d lines",
		n+1, len(wl), len(gl))
}

// StaleDirs returns subdirectories of goldenDir that name no corpus
// scenario — frozen bytes nobody checks anymore. TestCorpusGoldenComplete
// fails on them, and removes them under its -update flag. A missing
// goldenDir returns nil (the per-layer checks report it as missing
// goldens).
func StaleDirs(goldenDir string) []string {
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		return nil
	}
	known := make(map[string]bool)
	for _, sc := range All() {
		known[sc.Name] = true
	}
	var stale []string
	for _, e := range entries {
		if e.IsDir() && !known[e.Name()] {
			stale = append(stale, e.Name())
		}
	}
	sort.Strings(stale)
	return stale
}

func truncate(line []byte) string {
	const max = 160
	if len(line) <= max {
		return string(line)
	}
	return string(line[:max]) + "…"
}
