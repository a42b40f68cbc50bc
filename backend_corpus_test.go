package repro_test

// The corpus-wide backend invariant suite: every scenario in
// internal/corpus is scheduled by every registered backend that accepts
// its parameters, and every resulting schedule must pass
// sched.CheckInvariants (no TAM-wire overlap, power budget never
// exceeded, precedence and mutual-exclusion edges honored, every core
// tested exactly once, split tests whole), the full timing-model Verify
// and a tamsim replay (bit-level for every unpreempted core of at most
// 100,000 stimulus and response bits, cycle-level for the rest). A
// backend that declines a scenario's parameters (rectpack under
// preemption budgets, preempt-rectpack without them) is skipped — but the
// suite checks the declared regimes really partition the corpus. The
// suite also pins the competitive acceptance bars: rectpack ties or beats
// the classic grid-swept makespan on at least 5 scenarios, the search
// backends (preempt-rectpack or anneal) on strictly more than 14, anneal
// is never worse than rectpack head-to-head, and the portfolio is never
// worse than the best single backend.
//
// Finally it pins the search backends' exact output: the sha256 of every
// rectpack, preempt-rectpack, anneal and portfolio schedio document must
// match testdata/backend-digests.txt. The goldens freeze only the classic
// backend's bytes, so without this table a packer refactor could move
// every search schedule and keep every makespan bar green. Besides each
// scenario at its own params, the table covers the cold-portfolio request
// shapes above the per-core MaxWidth cap (wideRequests).

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/rectpack"
	"repro/internal/sched"
	"repro/internal/schedio"
	"repro/internal/tamsim"
)

// digestFile is the committed digest table: one "<scenario> W=<width>
// <backend> <sha256 of the schedio bytes>" line per pinned schedule,
// sorted.
var digestFile = filepath.Join("testdata", "backend-digests.txt")

// digestBackends are the backends the digest table pins; the goldens
// already pin classic.
var digestBackends = map[string]bool{"anneal": true, "portfolio": true, "preempt-rectpack": true, "rectpack": true}

// wideRequests are the cold-portfolio request shapes above the per-core
// MaxWidth cap (sched.DefaultMaxWidth = 64): a corpus scenario at a wider
// TAM than its own params. No scenario covers that regime at its own width.
var wideRequests = []struct {
	scenario string
	width    int
}{
	{"d695-w64", 66},
	{"monster60-w64", 68},
	{"monster60-w64-preempt4", 68},
}

func TestCorpusBackendInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus backend replay skipped in -short mode")
	}
	backends := sched.Backends()
	if len(backends) < 5 {
		t.Fatalf("expected classic, portfolio, rectpack, preempt-rectpack and anneal registered, have %v", backends)
	}

	type outcome struct {
		makespans map[string]int64
	}
	var mu sync.Mutex
	results := make(map[string]*outcome)
	digests := make(map[string]string)

	// replay schedules sc with every backend that accepts its params,
	// checks every schedule, records the pinned digests, and returns the
	// makespans by backend.
	replay := func(t *testing.T, sc corpus.Scenario) map[string]int64 {
		makespans := make(map[string]int64, len(backends))
		s := sc.Build()
		params, err := sc.ResolveParams(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range backends {
			b, err := sched.BackendByName(backend)
			if err != nil {
				t.Fatal(err)
			}
			if reason, declined := sched.BackendDeclines(b, params); declined {
				t.Logf("backend %s declined: %s", backend, reason)
				continue
			}
			sch, doc, err := corpus.ReplaySchedule(sc, backend)
			if err != nil {
				t.Fatalf("backend %s: %v", backend, err)
			}
			if err := sched.CheckInvariants(s, sch); err != nil {
				t.Errorf("backend %s: invariants: %v", backend, err)
			}
			if err := sched.Verify(s, sch); err != nil {
				t.Errorf("backend %s: verify: %v", backend, err)
			}
			if _, err := tamsim.Simulate(s, sch, tamsim.Options{BitLevelMaxBits: 100_000}); err != nil {
				t.Errorf("backend %s: simulate: %v", backend, err)
			}
			makespans[backend] = sch.Makespan
			if digestBackends[backend] {
				sum := sha256.Sum256(doc)
				mu.Lock()
				digests[fmt.Sprintf("%s W=%d %s", sc.Name, params.TAMWidth, backend)] = hex.EncodeToString(sum[:])
				mu.Unlock()
			}
		}
		// The declared regimes partition the corpus: exactly one of
		// rectpack / preempt-rectpack accepts any scenario, and
		// classic, anneal and the portfolio accept everything.
		for _, name := range []string{"classic", "anneal", "portfolio"} {
			if _, ok := makespans[name]; !ok {
				t.Errorf("backend %s declined scenario %s; it must accept everything", name, sc.Name)
			}
		}
		_, rp := makespans[rectpack.Name]
		_, pp := makespans[rectpack.PreemptName]
		if rp == pp {
			t.Errorf("scenario %s: rectpack accepted=%t preempt-rectpack accepted=%t; exactly one must serve it", sc.Name, rp, pp)
		}
		best := int64(-1)
		for _, m := range makespans {
			if best == -1 || m < best {
				best = m
			}
		}
		if p := makespans["portfolio"]; p > best {
			t.Errorf("portfolio makespan %d worse than best single backend %d (%v)", p, best, makespans)
		}
		if a, ok := makespans[rectpack.AnnealName]; ok {
			if r, ok := makespans[rectpack.Name]; ok && a > r {
				t.Errorf("anneal makespan %d worse than rectpack %d: the seeds cover rectpack's portfolio", a, r)
			}
		}
		return makespans
	}

	scenarios := corpus.All()
	// The per-scenario subtests run in parallel inside one group, so the
	// aggregate bars below only run once every outcome is in.
	t.Run("scenarios", func(t *testing.T) {
		for _, sc := range scenarios {
			t.Run(sc.Name, func(t *testing.T) {
				t.Parallel()
				out := &outcome{makespans: replay(t, sc)}
				mu.Lock()
				results[sc.Name] = out
				mu.Unlock()
			})
		}
		for _, wr := range wideRequests {
			sc, ok := corpus.ByName(wr.scenario)
			if !ok {
				t.Fatalf("no corpus scenario %q", wr.scenario)
			}
			sc.Params.TAMWidth = wr.width
			t.Run(fmt.Sprintf("%s@W%d", sc.Name, wr.width), func(t *testing.T) {
				t.Parallel()
				replay(t, sc)
			})
		}
	})

	t.Run("digests", func(t *testing.T) {
		checkDigests(t, digests)
	})

	t.Run("rectpack-competitive", func(t *testing.T) {
		if len(results) != len(scenarios) {
			t.Fatalf("only %d of %d scenarios produced outcomes", len(results), len(scenarios))
		}
		ties, wins := 0, 0
		for _, sc := range scenarios {
			out := results[sc.Name]
			r, ok := out.makespans[rectpack.Name]
			if !ok {
				continue // declined (preemption budgets)
			}
			c := out.makespans["classic"]
			switch {
			case r < c:
				wins++
			case r == c:
				ties++
			}
		}
		t.Logf("rectpack vs classic: %d wins, %d ties", wins, ties)
		if wins+ties < 5 {
			t.Errorf("rectpack ties or beats classic on only %d scenarios, want >= 5", wins+ties)
		}
	})

	// The search backends must beat the plain packer's historical record:
	// preempt-rectpack or anneal ties or beats classic on strictly more
	// scenarios than rectpack's 14-of-35 standing when they landed.
	t.Run("search-competitive", func(t *testing.T) {
		if len(results) != len(scenarios) {
			t.Fatalf("only %d of %d scenarios produced outcomes", len(results), len(scenarios))
		}
		tiesOrBeats := func(name string) int {
			n := 0
			for _, sc := range scenarios {
				out := results[sc.Name]
				if m, ok := out.makespans[name]; ok && m <= out.makespans["classic"] {
					n++
				}
			}
			return n
		}
		pr, an := tiesOrBeats(rectpack.PreemptName), tiesOrBeats(rectpack.AnnealName)
		for _, sc := range scenarios {
			out := results[sc.Name]
			t.Logf("%-28s classic=%-9d anneal=%-9d portfolio=%d", sc.Name,
				out.makespans["classic"], out.makespans[rectpack.AnnealName], out.makespans["portfolio"])
		}
		t.Logf("ties-or-beats classic: preempt-rectpack %d, anneal %d (of %d)", pr, an, len(scenarios))
		if pr <= 14 && an <= 14 {
			t.Errorf("neither search backend clears the bar: preempt-rectpack %d, anneal %d ties-or-beats, want > 14", pr, an)
		}
	})
}

// TestPortfolioBytesIndependentOfWorkers: a portfolio answer depends only
// on its request, and Workers is not part of the request's key. Every
// corpus scenario and every wide request is replayed several times at
// Workers = 4 through Optimizer.ScheduleItem, the path the service takes,
// and every run must give the Workers = 1 bytes. The scenarios whose race
// reaches LB(W) are the ones an early exit could make timing-dependent.
func TestPortfolioBytesIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("portfolio worker replay skipped in -short mode")
	}
	const runs = 4
	scenarios := corpus.All()
	for _, wr := range wideRequests {
		sc, ok := corpus.ByName(wr.scenario)
		if !ok {
			t.Fatalf("no corpus scenario %q", wr.scenario)
		}
		sc.Name = fmt.Sprintf("%s@W%d", sc.Name, wr.width)
		sc.Params.TAMWidth = wr.width
		scenarios = append(scenarios, sc)
	}
	for _, sc := range scenarios {
		t.Run(sc.Name, func(t *testing.T) {
			s := sc.Build()
			params, err := sc.ResolveParams(s) // Workers = 1
			if err != nil {
				t.Fatal(err)
			}
			params.Backend = "portfolio"
			opt, err := sched.New(s, sched.DefaultMaxWidth)
			if err != nil {
				t.Fatal(err)
			}
			doc := func(params sched.Params) []byte {
				sch, err := opt.ScheduleItem(context.Background(), sched.BatchItem{Params: params, Best: true})
				if err != nil {
					t.Fatalf("workers %d: %v", params.Workers, err)
				}
				var buf bytes.Buffer
				if err := schedio.Save(&buf, sch); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			want := doc(params)
			params.Workers = 4
			for run := 1; run <= runs; run++ {
				if got := doc(params); !bytes.Equal(got, want) {
					t.Fatalf("run %d of %d at Workers = 4 differs from Workers = 1:\n%s", run, runs, corpus.Diff(want, got))
				}
			}
		})
	}
}

// checkDigests compares the schedio digests of this run with the committed
// table, line by line. A mismatch prints the line the table would need, so
// an intentional output change is re-blessed by pasting it in.
func checkDigests(t *testing.T, got map[string]string) {
	t.Helper()
	data, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", digestFile, line)
		}
		want[line[:i]] = line[i+1:]
	}
	keys := make([]string, 0, len(got)+len(want))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch g, w := got[k], want[k]; {
		case w == "":
			t.Errorf("%s: no digest for %q; add line:\n%s %s", digestFile, k, k, g)
		case g == "":
			t.Errorf("%s: %q was not scheduled; remove its line", digestFile, k)
		case g != w:
			t.Errorf("%s: %q schedule bytes changed; line is now:\n%s %s", digestFile, k, k, g)
		}
	}
}
