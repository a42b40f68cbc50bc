package corpus

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/socfile"
)

// TestCorpusShape pins the corpus contract the regression gate depends on:
// enough scenarios, unique names, valid builds, and sane knobs.
func TestCorpusShape(t *testing.T) {
	scenarios := All()
	if len(scenarios) < 30 {
		t.Fatalf("corpus has %d scenarios, the gate requires >= 30", len(scenarios))
	}
	if len(Layers()) < 5 {
		t.Fatalf("corpus freezes %d layers, the gate requires >= 5", len(Layers()))
	}
	seen := make(map[string]bool)
	for _, sc := range scenarios {
		if sc.Name == "" || strings.ContainsAny(sc.Name, " /\\") {
			t.Errorf("scenario %q: name must be a path-safe slug", sc.Name)
		}
		if seen[sc.Name] {
			t.Errorf("duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		if sc.Params.TAMWidth < 1 {
			t.Errorf("%s: TAMWidth %d < 1", sc.Name, sc.Params.TAMWidth)
		}
		if sc.WidthLo < 1 || sc.WidthHi < sc.WidthLo {
			t.Errorf("%s: bad sweep range [%d,%d]", sc.Name, sc.WidthLo, sc.WidthHi)
		}
		s := sc.Build()
		if err := s.Validate(); err != nil {
			t.Errorf("%s: build: %v", sc.Name, err)
		}
		if err := socfile.ValidateNames(s); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
	}
}

// TestBuildDeterministic checks that Build returns semantically identical
// SOCs on repeated calls (the corpus is meaningless otherwise).
func TestBuildDeterministic(t *testing.T) {
	for _, sc := range All() {
		a, b := socfile.Fingerprint(sc.Build()), socfile.Fingerprint(sc.Build())
		if a != b {
			t.Errorf("%s: two builds fingerprint differently (%s vs %s)", sc.Name, a, b)
		}
	}
}

// TestReplayDeterministic replays a cheap scenario twice and demands
// byte-identical artifacts on every layer, including the HTTP ones.
func TestReplayDeterministic(t *testing.T) {
	sc, ok := ByName("toy4-w8")
	if !ok {
		t.Fatal("toy4-w8 missing from corpus")
	}
	first, err := Replay(sc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Replay(sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, layer := range Layers() {
		if len(first[layer]) == 0 {
			t.Errorf("layer %s: empty artifact", layer)
		}
		if !bytes.Equal(first[layer], second[layer]) {
			t.Errorf("layer %s: two replays differ:\n%s", layer, Diff(first[layer], second[layer]))
		}
	}
}

func TestDiff(t *testing.T) {
	if d := Diff([]byte("a\nb\n"), []byte("a\nb\n")); d != "" {
		t.Errorf("identical bytes reported a diff: %s", d)
	}
	d := Diff([]byte("a\nb\nc\n"), []byte("a\nX\nc\n"))
	if !strings.Contains(d, "line 2") || !strings.Contains(d, "X") {
		t.Errorf("diff did not locate the divergence: %s", d)
	}
	if d := Diff([]byte("a\n"), []byte("a\nb\n")); !strings.Contains(d, "lines") {
		t.Errorf("length-only diff not reported: %s", d)
	}
}

// TestStaleDirs: a golden directory naming no scenario is stale, one
// naming a scenario is not, plain files are ignored, and a missing golden
// directory has nothing stale.
func TestStaleDirs(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"toy4-w8", "zz-gone", "aa-gone"} {
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, want := StaleDirs(dir), []string{"aa-gone", "zz-gone"}; !reflect.DeepEqual(got, want) {
		t.Errorf("StaleDirs = %v, want %v", got, want)
	}
	if got := StaleDirs(filepath.Join(dir, "missing")); got != nil {
		t.Errorf("missing golden dir: StaleDirs = %v, want nil", got)
	}
}
