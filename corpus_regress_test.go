package repro_test

// The corpus golden-regression gate: every scenario in internal/corpus is
// replayed across every output layer (schedule bytes, width sweeps,
// data-volume curves, effective widths, lower bounds, and socserved HTTP
// responses) and compared byte-for-byte against the golden files committed
// under testdata/golden/. CI runs it at native speed:
//
//	go test -count=1 -run '^TestCorpusGolden' .
//
// When a change legitimately moves an output — a new heuristic, a format
// extension — re-bless with
//
//	go test . -run '^TestCorpusGolden' -update
//
// and commit the golden diff alongside the code so the review sees exactly
// what moved. -run 'TestCorpusGoldenRegression/d695' replays and re-blesses
// only the scenarios whose names match.

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
)

var update = flag.Bool("update", false, "rewrite the corpus goldens from this replay and remove stale golden directories")

const updateCmd = "go test . -run '^TestCorpusGolden' -update"

func TestCorpusGoldenRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay skipped in -short mode")
	}
	for _, sc := range corpus.All() {
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			got, err := corpus.Replay(sc)
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join("testdata", "golden", sc.Name)
			if *update {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			for _, layer := range corpus.Layers() {
				path := filepath.Join(dir, layer)
				if *update {
					if err := os.WriteFile(path, got[layer], 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Errorf("missing golden %s (bless with `%s`): %v", path, updateCmd, err)
					continue
				}
				if d := corpus.Diff(want, got[layer]); d != "" {
					t.Errorf("%s drifted from %s:\n%s\n(if intentional, re-bless with `%s`)", layer, path, d, updateCmd)
				}
			}
		})
	}
}

// TestCorpusGoldenComplete fails when a golden directory exists for a
// scenario that is no longer in the corpus — stale bytes nobody checks.
// Under -update it removes them instead.
func TestCorpusGoldenComplete(t *testing.T) {
	dir := filepath.Join("testdata", "golden")
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("no golden directory (bless with `%s`): %v", updateCmd, err)
	}
	for _, name := range corpus.StaleDirs(dir) {
		if *update {
			if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
			t.Logf("removed stale golden directory %q", name)
			continue
		}
		t.Errorf("stale golden directory %q names no corpus scenario (remove with `%s`)", name, updateCmd)
	}
}
