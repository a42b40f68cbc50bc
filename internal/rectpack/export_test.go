package rectpack

import (
	"math/rand"
	"testing"

	"repro/internal/sched"
)

// The decoder checks over the corpus's request shapes run from package
// rectpack_test, because the corpus imports this package to register its
// backends. These hooks hand them one shape at a time.

// CheckDecoderShape runs TestDecoderMatchesReference's differential on one
// shape and returns the number of genomes it decoded.
func CheckDecoderShape(t *testing.T, name string, opt *sched.Optimizer, params sched.Params, seed int64) int {
	t.Helper()
	return checkMatchesReference(t, shapeFixture(t, name, opt, params, seed))
}

// CheckDecodeCutShape runs TestDecodeCutMatchesFullDecode's checks on one
// shape and returns the genomes whose unlimited decode failed, the
// limited decodes and the cut ones among them.
func CheckDecodeCutShape(t *testing.T, name string, opt *sched.Optimizer, params sched.Params, seed int64) (failed, limited, cuts int) {
	t.Helper()
	return checkCut(t, shapeFixture(t, name, opt, params, seed), rand.New(rand.NewSource(seed)))
}
