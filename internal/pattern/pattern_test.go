package pattern

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/soc"
	"repro/internal/wrapper"
)

func testCore() *soc.Core {
	return &soc.Core{
		ID: 3, Name: "t", Inputs: 5, Outputs: 4, Bidirs: 1,
		ScanChains: []int{12, 9},
		Test:       soc.Test{Patterns: 7, BISTEngine: -1},
	}
}

func TestGenerateSizes(t *testing.T) {
	c := testCore()
	d, err := wrapper.DesignWrapper(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Generate(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Vectors) != c.Test.Patterns {
		t.Fatalf("got %d vectors, want %d", len(set.Vectors), c.Test.Patterns)
	}
	// Scan-in bits: inputs + bidirs + scan = 5+1+21 = 27; scan-out:
	// scan + outputs + bidirs = 21+4+1 = 26.
	if set.ScanInBits != 27 || set.ScanOutBits != 26 {
		t.Fatalf("si/so bits = %d/%d, want 27/26", set.ScanInBits, set.ScanOutBits)
	}
	for i, v := range set.Vectors {
		if len(v.Stimulus) != 27 || len(v.Response) != 26 {
			t.Fatalf("vector %d sized %d/%d", i, len(v.Stimulus), len(v.Response))
		}
		for _, b := range v.Stimulus {
			if b > 1 {
				t.Fatalf("non-binary stimulus bit %d", b)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	c := testCore()
	d, _ := wrapper.DesignWrapper(c, 2)
	a, err := Generate(c, d)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(c, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Vectors {
		if !bytes.Equal(a.Vectors[i].Stimulus, b.Vectors[i].Stimulus) ||
			!bytes.Equal(a.Vectors[i].Response, b.Vectors[i].Response) {
			t.Fatalf("vector %d differs between runs", i)
		}
	}
}

func TestGenerateMismatchedDesign(t *testing.T) {
	c := testCore()
	other := testCore()
	other.ID = 9
	d, _ := wrapper.DesignWrapper(other, 2)
	if _, err := Generate(c, d); err == nil {
		t.Fatal("mismatched design accepted")
	}
}

func TestRespondProperties(t *testing.T) {
	stim := []byte{1, 0, 1, 1, 0, 0, 1, 0, 1, 1}
	r1 := Respond(1, stim, 8)
	r2 := Respond(1, stim, 8)
	if !bytes.Equal(r1, r2) {
		t.Fatal("Respond not deterministic")
	}
	r3 := Respond(2, stim, 8)
	if bytes.Equal(r1, r3) {
		t.Fatal("different cores produced identical responses (likely a keying bug)")
	}
	if len(Respond(1, nil, 4)) != 4 {
		t.Fatal("empty stimulus must still size the response")
	}
	for _, b := range r1 {
		if b > 1 {
			t.Fatalf("non-binary response bit %d", b)
		}
	}
}

// Property: responses depend on the stimulus — flipping a stimulus bit
// changes at least one response bit for a reasonably wide response (the
// keyed-parity model taps ~8 positions per output, so sensitivity is high
// but not guaranteed per bit; require sensitivity in aggregate).
func TestRespondSensitivityProperty(t *testing.T) {
	f := func(seed uint8) bool {
		n := 40
		stim := make([]byte, n)
		for i := range stim {
			stim[i] = byte((int(seed) + i*7) % 2)
		}
		base := Respond(5, stim, 64)
		changed := 0
		for i := 0; i < n; i++ {
			stim[i] ^= 1
			if !bytes.Equal(base, Respond(5, stim, 64)) {
				changed++
			}
			stim[i] ^= 1
		}
		// At least half the single-bit flips must perturb the response.
		return changed >= n/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
