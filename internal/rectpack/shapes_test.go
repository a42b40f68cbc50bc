package rectpack_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/rectpack"
	"repro/internal/sched"
)

// coldShape is one request shape of perfbench's cold-portfolio workload.
type coldShape struct {
	name   string
	opt    *sched.Optimizer
	params sched.Params
}

// coldShapes returns the cold-portfolio request shapes, as
// BenchmarkScheduleColdShapes builds them: every corpus scenario that
// keeps its hierarchy constraints, at its own params and at the quarter
// points of its width window.
var coldShapes = sync.OnceValues(func() ([]coldShape, error) {
	var out []coldShape
	for _, sc := range corpus.All() {
		if sc.Params.IgnoreHierarchy {
			continue
		}
		s := sc.Build()
		params, err := sc.ResolveParams(s)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		opt, err := sched.New(s, sched.DefaultMaxWidth)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		n := sc.WidthHi - sc.WidthLo
		for _, w := range []int{sc.WidthLo + n/4, sc.WidthLo + n/2, sc.WidthLo + 3*n/4} {
			params.TAMWidth = w
			out = append(out, coldShape{fmt.Sprintf("%s@W%d", sc.Name, w), opt, params})
		}
	}
	return out, nil
})

func loadColdShapes(t *testing.T) []coldShape {
	t.Helper()
	shapes, err := coldShapes()
	if err != nil {
		t.Fatal(err)
	}
	return shapes
}

// TestDecoderMatchesReference: over every cold-portfolio shape, the seeds
// of all three modes and copies of each walked 10 and 30 seeded neighbor
// moves away decode, with no limit, to the same makespan, events, splits
// and per-core width, segments, preemptions and penalty as the event loop
// that walks every core at every event, and fail where it fails.
func TestDecoderMatchesReference(t *testing.T) {
	t.Parallel()
	genomes := 0
	shapes := loadColdShapes(t)
	for i, sh := range shapes {
		genomes += rectpack.CheckDecoderShape(t, sh.name, sh.opt, sh.params, int64(i+1))
	}
	t.Logf("%d shapes, %d genomes", len(shapes), genomes)
}

// TestDecodeCutMatchesFullDecode: over the same genomes, a decode under a
// makespan limit is cut only where the full decode fails or ends after the
// limit, and otherwise returns the full decode's result; a genome with no
// split gene and no preemption bit always decodes, and is cut exactly when
// its makespan is above the limit.
func TestDecodeCutMatchesFullDecode(t *testing.T) {
	t.Parallel()
	var failed, limited, cuts int
	for i, sh := range loadColdShapes(t) {
		f, l, c := rectpack.CheckDecodeCutShape(t, sh.name, sh.opt, sh.params, int64(i+1))
		failed, limited, cuts = failed+f, limited+l, cuts+c
	}
	if cuts == 0 {
		t.Fatal("no limited decode was cut")
	}
	t.Logf("%d limited decodes, %d cut; %d genomes with a split gene or preemption bit failed", limited, cuts, failed)
}

// TestAnnealSkipKeepsTheDecode: over 50 seeded neighbor moves from every
// anneal seed of every cold-portfolio shape, each move that anneal does
// not decode leaves the genome's unlimited decode exactly as it was, and
// each kind of such move occurs.
func TestAnnealSkipKeepsTheDecode(t *testing.T) {
	t.Parallel()
	total := make([]int, len(rectpack.KeepKinds))
	for i, sh := range loadColdShapes(t) {
		for k, n := range rectpack.CheckKeepsDecodeShape(t, sh.name, sh.opt, sh.params, int64(i+1)) {
			total[k] += n
		}
	}
	for k, n := range total {
		if n == 0 {
			t.Errorf("no %s occurred", rectpack.KeepKinds[k])
		}
		t.Logf("%d %s", n, rectpack.KeepKinds[k])
	}
}
