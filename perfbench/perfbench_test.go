package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/lb"
	"repro/internal/sched"
	"repro/internal/schedio"
	"repro/internal/soc"
	"repro/internal/socfile"
)

func TestTailQuantileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{15, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
		if q := tailQuantile(c.n); q > 0 && beyond(c.n, q) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond", c.n, 100*q, beyond(c.n, q))
		}
	}
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if got := quantile(vals, 0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90 (ten samples beyond)", got)
	}
	if got := quantile(vals, 0.5); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(values, n=4).
	for _, c := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{2.5, 7.25}, 1.3125, 8.4375},
		{[]float64{1, 2, 3}, 1, 3},
	} {
		q1, q3 := quartiles(c.values)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.values, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	if got := verdict(parent, faster, "lower"); got != "better" {
		t.Errorf("lower times: %s, want better", got)
	}
	if got := verdict(parent, faster, "higher"); got != "worse" {
		t.Errorf("lower rates: %s, want worse", got)
	}
	if got := verdict(parent, parent, "lower"); got != "unresolved" {
		t.Errorf("same runs: %s, want unresolved", got)
	}
	// Medians apart but one pair in three the other way: not nine tenths.
	mixed := []float64{80, 120, 80, 80, 120, 80, 80, 120, 80, 80}
	if got := verdict(parent, mixed, "lower"); got != "unresolved" {
		t.Errorf("mixed pairs: %s, want unresolved", got)
	}
}

// scheduleDoc schedules d695 at width w and returns the SOC, the schedule
// and its document.
func scheduleDoc(t *testing.T, w int) (*soc.SOC, *sched.Schedule, []byte) {
	t.Helper()
	s, err := bench.ByName("d695")
	if err != nil {
		t.Fatal(err)
	}
	sch, err := sched.SweepBest(s, sched.Params{TAMWidth: w, Workers: 1}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := schedio.Save(&buf, sch); err != nil {
		t.Fatal(err)
	}
	return s, sch, buf.Bytes()
}

func TestMakespanGap(t *testing.T) {
	if got := gapPct(110, 100); got != 10 {
		t.Errorf("gapPct(110, 100) = %v, want 10", got)
	}
	if got := gapPct(100, 100); got != 0 {
		t.Errorf("gapPct(100, 100) = %v, want 0", got)
	}

	s, sch, doc := scheduleDoc(t, 32)
	fp := socfile.Fingerprint(s)
	docs := make(map[docKey][]byte)
	k := storeDoc(docs, doc)
	c := newChecker(map[string]*soc.SOC{fp: s}, docs)
	v := c.schedule(fp, 32, k)
	if v.err != nil {
		t.Fatal(v.err)
	}
	b, err := lb.Compute(s, 32, sched.DefaultMaxWidth)
	if err != nil {
		t.Fatal(err)
	}
	want := 100 * float64(sch.Makespan-b.Value()) / float64(b.Value())
	if v.gap != want || v.gap < 0 {
		t.Errorf("gap = %v, want %v (makespan %d, LB %d)", v.gap, want, sch.Makespan, b.Value())
	}
	if v := c.schedule(fp, 24, k); v.err == nil {
		t.Error("a W=32 schedule passed as the answer for W=24")
	}
	bad := bytes.Replace(doc, []byte(`"makespan": `), []byte(`"makespan": 1`), 1)
	if v := c.schedule(fp, 32, storeDoc(docs, bad)); v.err == nil {
		t.Error("a tampered makespan passed the checks")
	}
}

func TestCalibrationKernel(t *testing.T) {
	c := newCalibrator()
	if n := testing.AllocsPerRun(5, c.kernel); n != 0 {
		t.Errorf("kernel allocates %v times per run; the service's GC would move it", n)
	}
	if n := testing.AllocsPerRun(5, func() { c.sample() }); n > 1 {
		t.Errorf("sample allocates %v times per run beyond its records", n)
	}
	c.samples = []time.Duration{time.Millisecond, 2 * time.Millisecond}
	c.resident = []time.Duration{time.Millisecond / 2, time.Millisecond / 2}
	if got := meanMS(c.samples); got != 1.5 {
		t.Errorf("meanMS = %v, want 1.5", got)
	}
	if got, want := c.scale(), refKernelMS/1.5; got != want {
		t.Errorf("scale = %v, want %v", got, want)
	}
	if got, want := c.latencyScale(), refResidentMS/0.5; got != want {
		t.Errorf("latencyScale = %v, want %v", got, want)
	}
}

var workloadNames = []string{"cold-portfolio", "hot-mix", "sweep-effective"}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, err := buildPlan(w, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildPlan(w, 7, 2)
		c, _ := buildPlan(w, 8, 2)
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 generated different traffic twice", w)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 generated identical traffic", w)
		}
		if a.Prefix > len(a.Requests) || len(a.Requests) < minRequests || a.Pass < 1 {
			t.Errorf("%s: prefix %d, pass %d, %d requests", w, a.Prefix, a.Pass, len(a.Requests))
		}
	}
}

// prefixBodies returns the sorted request bodies of a plan's prefix.
func prefixBodies(p *plan) []string {
	var out []string
	for _, r := range p.Requests[:p.Prefix] {
		out = append(out, string(r.Body))
	}
	sort.Strings(out)
	return out
}

func TestColdPortfolioAlwaysMisses(t *testing.T) {
	a, err := buildPlan("cold-portfolio", 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Prefix < minRequests {
		t.Errorf("pass of %d requests, want at least %d", a.Prefix, minRequests)
	}
	seen := make(map[string]bool)
	for _, r := range a.Requests {
		it := r.Items[0]
		key := it.SOC + "|" + it.Params.Options().CanonicalKey()
		if seen[key] {
			t.Fatalf("request %s repeats an earlier cache key", r.Body)
		}
		seen[key] = true
	}
	b, _ := buildPlan("cold-portfolio", 8, 3)
	if !reflect.DeepEqual(prefixBodies(a), prefixBodies(b)) {
		t.Error("the first pass differs between seeds; makespan_gap_pct would too")
	}
}

func TestSweepWindowsDisjoint(t *testing.T) {
	p, err := buildPlan("sweep-effective", 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	widths := make(map[string]bool)
	for _, r := range p.Requests[:p.Prefix] {
		if r.Lo > r.Hi {
			t.Fatalf("empty window [%d,%d]", r.Lo, r.Hi)
		}
		for w := r.Lo; w <= r.Hi; w++ {
			key := fmt.Sprintf("%s|%d", r.SOC, w)
			if widths[key] {
				t.Fatalf("width %d of %s swept twice in one pass", w, r.SOC)
			}
			widths[key] = true
		}
	}
}

func TestSplitWindows(t *testing.T) {
	got := splitWindows([]int{1, 2, 3, 4, 5, 6, 9, 10, 11}, 3)
	want := [][2]int{{1, 3}, {4, 6}, {9, 11}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("splitWindows = %v, want %v", got, want)
	}
	got = splitWindows([]int{1, 2, 5, 6, 7, 8}, 2)
	want = [][2]int{{1, 2}, {5, 5}, {6, 8}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("splitWindows across a gap = %v, want %v", got, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with what the program
// prints: workload names, metric names, units and directions.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, want %v", len(spec.Workloads), workloadNames)
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d: %q (why %q), want %q with a reason", i, w.Name, w.Why, workloadNames[i])
		}
	}
	if len(spec.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics, program prints %d", len(spec.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range spec.EndToEnd {
		e := endToEndMetrics[i]
		if m.Name != e.name || m.Unit != e.unit || m.Better != better(e.name) {
			t.Errorf("end_to_end %d: %+v, program has %s %s %s", i, m, e.name, e.unit, better(e.name))
		}
	}
	printed := make(map[string]bool)
	for _, name := range perLayerNames() {
		printed[name] = true
	}
	for _, m := range spec.PerLayer {
		if !printed[m.Name] || m.Better != better(m.Name) {
			t.Errorf("per_layer %+v: printed %t, program direction %s", m, printed[m.Name], better(m.Name))
		}
	}
}
