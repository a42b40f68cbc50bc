package wrapper

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/soc"
)

func scanCore(id int, in, out, bidir int, chains []int, patterns int) *soc.Core {
	return &soc.Core{
		ID: id, Name: "t", Inputs: in, Outputs: out, Bidirs: bidir,
		ScanChains: chains,
		Test:       soc.Test{Patterns: patterns, BISTEngine: -1},
	}
}

func TestTestTimeFormula(t *testing.T) {
	cases := []struct {
		si, so, p int
		want      int64
	}{
		{0, 0, 10, 10},          // combinational, no cells: p captures
		{5, 3, 1, 9},            // (1+5)·1 + 3
		{3, 5, 1, 9},            // symmetric in si/so
		{10, 10, 100, 1110},     // (1+10)·100 + 10
		{437, 437, 260, 114317}, // the paper's Fig. 1 plateau value
	}
	for _, tc := range cases {
		if got := TestTime(tc.si, tc.so, tc.p); got != tc.want {
			t.Errorf("TestTime(%d,%d,%d) = %d, want %d", tc.si, tc.so, tc.p, got, tc.want)
		}
	}
}

func TestDesignWrapperBasics(t *testing.T) {
	c := scanCore(1, 4, 2, 0, []int{10, 8, 6}, 5)
	d, err := DesignWrapper(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(c); err != nil {
		t.Fatal(err)
	}
	// Three chains, one scan chain each: loads 10, 8, 6; the 4 inputs
	// water-fill to 10/9/9 or similar with max scan-in 10.
	if d.ScanInMax != 10 {
		t.Errorf("ScanInMax = %d, want 10", d.ScanInMax)
	}
	if d.ScanOutMax != 10 {
		t.Errorf("ScanOutMax = %d, want 10", d.ScanOutMax)
	}
	if got, want := d.TestTime(), TestTime(10, 10, 5); got != want {
		t.Errorf("TestTime = %d, want %d", got, want)
	}
}

func TestDesignWrapperWidthOne(t *testing.T) {
	c := scanCore(1, 3, 2, 1, []int{7, 5}, 4)
	d, err := DesignWrapper(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(c); err != nil {
		t.Fatal(err)
	}
	// Everything on one chain: si = 3 in + 1 bidir + 12 scan = 16,
	// so = 12 scan + 2 out + 1 bidir = 15.
	if d.ScanInMax != 16 || d.ScanOutMax != 15 {
		t.Fatalf("si/so = %d/%d, want 16/15", d.ScanInMax, d.ScanOutMax)
	}
}

func TestDesignWrapperCombinational(t *testing.T) {
	c := scanCore(1, 10, 6, 0, nil, 3)
	d, err := DesignWrapper(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(c); err != nil {
		t.Fatal(err)
	}
	// 10 inputs over 4 chains water-fill to max 3; 6 outputs to max 2.
	if d.ScanInMax != 3 || d.ScanOutMax != 2 {
		t.Fatalf("si/so = %d/%d, want 3/2", d.ScanInMax, d.ScanOutMax)
	}
}

func TestDesignWrapperErrors(t *testing.T) {
	c := scanCore(1, 1, 1, 0, nil, 1)
	if _, err := DesignWrapper(c, 0); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := DesignWrapper(nil, 1); err == nil {
		t.Error("nil core accepted")
	}
}

func TestPreemptionPenalty(t *testing.T) {
	c := scanCore(1, 2, 2, 0, []int{9}, 5)
	d, err := DesignWrapper(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.PreemptionPenalty(), int64(d.ScanInMax+d.ScanOutMax); got != want {
		t.Fatalf("penalty = %d, want %d", got, want)
	}
}

func TestValidateCatchesTampering(t *testing.T) {
	c := scanCore(1, 4, 2, 0, []int{10, 8}, 5)
	fresh := func() *Design {
		d, err := DesignWrapper(c, 2)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := fresh()
	d.Chains[0].ScanBits++
	if err := d.Validate(c); err == nil {
		t.Error("scan-bit tampering accepted")
	}
	d = fresh()
	d.Chains[0].InputCells++
	if err := d.Validate(c); err == nil {
		t.Error("cell-count tampering accepted")
	}
	d = fresh()
	d.ScanInMax++
	if err := d.Validate(c); err == nil {
		t.Error("si tampering accepted")
	}
	d = fresh()
	d.Chains[0].ScanChains = append(d.Chains[0].ScanChains, d.Chains[1].ScanChains...)
	d.Chains[1].ScanChains = nil
	if err := d.Validate(c); err == nil {
		t.Error("chain reassignment without bit update accepted")
	}
	d = fresh()
	d.Patterns++
	if err := d.Validate(c); err == nil {
		t.Error("pattern tampering accepted")
	}
}

// randomCore builds a random core for property tests.
func randomCore(rng *rand.Rand) *soc.Core {
	c := &soc.Core{
		ID: 1, Name: "r",
		Inputs:  rng.Intn(60),
		Outputs: rng.Intn(60),
		Bidirs:  rng.Intn(12),
		Test:    soc.Test{Patterns: 1 + rng.Intn(200), BISTEngine: -1},
	}
	for j := rng.Intn(12); j > 0; j-- {
		c.ScanChains = append(c.ScanChains, 1+rng.Intn(120))
	}
	if c.Inputs+c.Outputs+c.Bidirs+len(c.ScanChains) == 0 {
		c.Inputs = 1
	}
	return c
}

// Property: every design validates, and si/so and T are non-increasing in
// width (more TAM wires never hurt).
func TestMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCore(rng)
		prevT := int64(-1)
		prevSi, prevSo := -1, -1
		for w := 1; w <= 20; w++ {
			d, err := DesignWrapper(c, w)
			if err != nil {
				t.Logf("design w=%d: %v", w, err)
				return false
			}
			if err := d.Validate(c); err != nil {
				t.Logf("validate w=%d: %v", w, err)
				return false
			}
			if prevT >= 0 && d.TestTime() > prevT {
				t.Logf("T increased at w=%d: %d -> %d (core %+v)", w, prevT, d.TestTime(), c)
				return false
			}
			if prevSi >= 0 && (d.ScanInMax > prevSi || d.ScanOutMax > prevSo) {
				t.Logf("si/so increased at w=%d (core %+v)", w, c)
				return false
			}
			prevT, prevSi, prevSo = d.TestTime(), d.ScanInMax, d.ScanOutMax
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: for a core with only I/O cells (no scan), water-filling is
// exactly optimal: max load = ceil(cells/width).
func TestWaterFillOptimalProperty(t *testing.T) {
	f := func(inputs, width uint8) bool {
		in := int(inputs)%200 + 1
		w := int(width)%16 + 1
		c := scanCore(1, in, 0, 0, nil, 1)
		d, err := DesignWrapper(c, w)
		if err != nil {
			return false
		}
		want := (in + w - 1) / w
		return d.ScanInMax == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the BFD scan partition obeys Graham's list-scheduling bound,
// which holds without knowing OPT: a least-loaded-first assignment never
// exceeds the average load plus one item, so
// max load <= ceil(total/w) + longest chain. (A 4/3 bound holds only
// relative to OPT, which can itself sit well above the area lower bound —
// e.g. chains {101,95,84,84,71} on 4 wires force an optimal 155 vs. an
// area bound of 109.)
func TestBFDQualityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCore(rng)
		c.Inputs, c.Outputs, c.Bidirs = 0, 0, 0
		if len(c.ScanChains) == 0 {
			c.ScanChains = []int{1 + rng.Intn(50)}
		}
		w := 1 + rng.Intn(8)
		d, err := DesignWrapper(c, w)
		if err != nil {
			return false
		}
		total, longest := 0, 0
		for _, l := range c.ScanChains {
			total += l
			if l > longest {
				longest = l
			}
		}
		avg := (total + w - 1) / w
		return d.ScanInMax <= avg+longest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBFDOptimalOnKnownInstances pins BFD against brute-force optima on
// small instances where OPT is computable.
func TestBFDOptimalOnKnownInstances(t *testing.T) {
	cases := []struct {
		chains []int
		w      int
		opt    int
	}{
		{[]int{101, 95, 84, 84, 71}, 4, 155}, // pairing forced: 84+71
		{[]int{10, 10, 10, 10}, 2, 20},
		{[]int{7, 5, 4, 3, 1}, 2, 10},
		{[]int{50}, 3, 50},
		{[]int{6, 6, 4, 4, 4}, 3, 10}, // {4,4}=8 leaves {6,6,4} in two bins

	}
	for _, tc := range cases {
		c := scanCore(1, 0, 0, 0, tc.chains, 1)
		d, err := DesignWrapper(c, tc.w)
		if err != nil {
			t.Fatal(err)
		}
		// BFD is a heuristic: allow it to miss OPT by the classical LPT
		// factor, but it must never beat OPT (that would mean a counting
		// bug) and on these instances it should in fact hit it.
		if d.ScanInMax < tc.opt {
			t.Errorf("chains %v w=%d: si=%d below OPT=%d (impossible)", tc.chains, tc.w, d.ScanInMax, tc.opt)
		}
		if d.ScanInMax != tc.opt {
			t.Errorf("chains %v w=%d: si=%d, OPT=%d", tc.chains, tc.w, d.ScanInMax, tc.opt)
		}
	}
}

func TestChainAccessors(t *testing.T) {
	ch := Chain{ScanBits: 10, InputCells: 3, OutputCells: 2, BidirCells: 1}
	if ch.ScanIn() != 14 {
		t.Fatalf("ScanIn = %d, want 14", ch.ScanIn())
	}
	if ch.ScanOut() != 13 {
		t.Fatalf("ScanOut = %d, want 13", ch.ScanOut())
	}
}
