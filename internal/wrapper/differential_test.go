package wrapper

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/soc"
)

// TestDesignWrapperMatchesReferenceRandom fuzzes the optimized DesignWrapper
// against the retained unit-by-unit reference: every design must be
// byte-identical (chain contents, cell counts, tie-breaks, si/so maxima).
// Beyond the 400 small cores drawn at one width each, 400 more cores (40
// with -short) with up to 40 chains, a quarter each with all lengths
// equal, with several zero-length chains and with no cells, go through
// checkWidths at every width up to a drawn maximum <= 128, so both sides
// of the "no more scan chains than wrapper chains" shortcut run.
func TestDesignWrapperMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		nchains := rng.Intn(12)
		chains := make([]int, nchains)
		for j := range chains {
			chains[j] = rng.Intn(200) // zero-length chains allowed
		}
		c := &soc.Core{
			ID:         1,
			Name:       "fuzz",
			Inputs:     rng.Intn(500),
			Outputs:    rng.Intn(500),
			Bidirs:     rng.Intn(120),
			ScanChains: chains,
			Test:       soc.Test{Patterns: 1 + rng.Intn(300), BISTEngine: -1},
		}
		w := 1 + rng.Intn(20)
		got, err := DesignWrapper(c, w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := designWrapperRef(c, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d (w=%d, core %+v):\n got  %+v\n want %+v", i, w, c, got, want)
		}
		if err := got.Validate(c); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
	}
	wide := 400
	if testing.Short() {
		wide = 40
	}
	for i := 0; i < wide; i++ {
		chains := make([]int, rng.Intn(41))
		for j := range chains {
			chains[j] = rng.Intn(200)
		}
		switch i % 4 {
		case 1: // all lengths equal
			for j := range chains {
				chains[j] = chains[0]
			}
		case 2: // several zero-length chains
			for j := range chains {
				if rng.Intn(3) == 0 {
					chains[j] = 0
				}
			}
		}
		c := &soc.Core{
			ID:         1,
			Name:       "fuzz",
			Inputs:     rng.Intn(60),
			Outputs:    rng.Intn(60),
			Bidirs:     rng.Intn(20),
			ScanChains: chains,
			Test:       soc.Test{Patterns: 1 + rng.Intn(300), BISTEngine: -1},
		}
		if i%4 == 3 { // no cells
			c.Inputs, c.Outputs, c.Bidirs = 0, 0, 0
		}
		checkWidths(t, c, 1+rng.Intn(128))
	}
}

// checkWidths asserts that at every width 1..maxWidth DesignWrapper builds
// the reference design and ScanLengths yields that design's longest
// scan-in and scan-out. Unless a scan chain has a negative length, which no
// valid SOC has, neither scan length may exceed its width-1 value: at
// width 1 every bit and cell sits on one chain.
func checkWidths(t testing.TB, c *soc.Core, maxWidth int) {
	t.Helper()
	bounded := !slices.ContainsFunc(c.ScanChains, func(l int) bool { return l < 0 })
	si, so := scanLengths(t, c, maxWidth)
	for w := 1; w <= maxWidth; w++ {
		want, err := designWrapperRef(c, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DesignWrapper(c, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("core %d w=%d: designs differ (core %+v)\n got  %+v\n want %+v", c.ID, w, c, got, want)
		}
		if si[w-1] != want.ScanInMax || so[w-1] != want.ScanOutMax {
			t.Fatalf("core %d w=%d: ScanLengths gives %d/%d, reference %d/%d (core %+v)",
				c.ID, w, si[w-1], so[w-1], want.ScanInMax, want.ScanOutMax, c)
		}
		if bounded && (si[w-1] > si[0] || so[w-1] > so[0]) {
			t.Fatalf("core %d w=%d: scan lengths %d/%d exceed width 1's %d/%d (core %+v)",
				c.ID, w, si[w-1], so[w-1], si[0], so[0], c)
		}
	}
}

// scanLengths collects ScanLengths(c, maxWidth) into two slices indexed by
// width-1, checking that every width arrives once and in order.
func scanLengths(t testing.TB, c *soc.Core, maxWidth int) (si, so []int) {
	t.Helper()
	err := ScanLengths(c, maxWidth, func(w, i, o int) {
		if w != len(si)+1 {
			t.Fatalf("core %d: ScanLengths yielded width %d after %d widths", c.ID, w, len(si))
		}
		si, so = append(si, i), append(so, o)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(si) != maxWidth {
		t.Fatalf("core %d: ScanLengths yielded %d widths, want %d", c.ID, len(si), maxWidth)
	}
	return si, so
}

// FuzzScanLengths checks the staircase against the reference
// Design_wrapper, not DesignWrapper, which shares ScanLengths' kernel:
// checkWidths at every width up to a fuzzed maximum <= 128. Each pair of
// bytes of chains is one scan chain of length -4095..4095, so zero and
// negative lengths, which no valid SOC has, run too; the cell counts go up
// to 4095.
func FuzzScanLengths(f *testing.F) {
	f.Add([]byte{}, uint16(10), uint16(6), uint16(0), uint8(3))
	f.Add([]byte{0, 100, 0, 100, 0, 100, 0, 100}, uint16(0), uint16(0), uint16(0), uint8(7))
	f.Add([]byte{0, 30, 0, 0, 0, 0, 0xff, 0xf0, 0, 9}, uint16(4), uint16(2), uint16(1), uint8(12))
	f.Add([]byte{1, 0, 0, 200, 0, 50, 0, 50, 0, 7, 0, 7, 0, 7}, uint16(300), uint16(200), uint16(30), uint8(40))
	f.Fuzz(func(t *testing.T, chains []byte, in, out, bidir uint16, width uint8) {
		c := &soc.Core{
			ID:      1,
			Name:    "fuzz",
			Inputs:  int(in % 4096),
			Outputs: int(out % 4096),
			Bidirs:  int(bidir % 4096),
			Test:    soc.Test{Patterns: 1, BISTEngine: -1},
		}
		for i := 0; i+1 < len(chains) && len(c.ScanChains) < 256; i += 2 {
			c.ScanChains = append(c.ScanChains, int(int16(chains[i])<<8|int16(chains[i+1]))%4096)
		}
		checkWidths(t, c, 1+int(width)%128)
	})
}

// TestFillMatchesReference pins the closed-form water-filling against the
// unit-by-unit loop on hand-picked shapes: empty chains, pre-loaded chains,
// plateaus with remainders, and n smaller/larger than the chain count. Each
// chain's share, the largest load after the fill, and the raised ascending
// loads must match the loop's.
func TestFillMatchesReference(t *testing.T) {
	cases := []struct {
		loads []int
		n     int
	}{
		{[]int{0}, 0},
		{[]int{0}, 5},
		{[]int{0, 0}, 3},
		{[]int{2, 0}, 1},
		{[]int{1, 0}, 2},
		{[]int{5, 5, 5}, 7},
		{[]int{9, 3, 3, 1}, 2},
		{[]int{9, 3, 3, 1}, 11},
		{[]int{9, 3, 3, 1}, 1000},
		{[]int{7, 7, 0, 7}, 13},
		{[]int{0, 1, 2, 3, 4, 5}, 4},
	}
	for _, tc := range cases {
		mk := func() []Chain {
			chains := make([]Chain, len(tc.loads))
			for j, l := range tc.loads {
				chains[j].ScanBits = l
			}
			return chains
		}
		got, want := mk(), mk()
		asc := slices.Sorted(slices.Values(tc.loads))
		f := waterFill(asc, tc.n)
		extra := f.extra
		for j := range got {
			got[j].InputCells = f.share(got[j].ScanIn(), &extra)
		}
		fillRef(want, tc.n, func(ch *Chain) int { return ch.ScanIn() }, func(ch *Chain) { ch.InputCells++ })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fill(loads=%v, n=%d):\n got  %+v\n want %+v", tc.loads, tc.n, got, want)
		}
		after := make([]int, len(want))
		for j := range want {
			after[j] = want[j].ScanIn()
		}
		slices.Sort(after)
		if m := f.max(asc); m != after[len(after)-1] {
			t.Errorf("fill(loads=%v, n=%d): max load %d, want %d", tc.loads, tc.n, m, after[len(after)-1])
		}
		if f.raise(asc); !slices.Equal(asc, after) {
			t.Errorf("fill(loads=%v, n=%d): raised loads %v, want %v", tc.loads, tc.n, asc, after)
		}
	}
}
