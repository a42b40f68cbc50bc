package rect

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustBin(t *testing.T, h int) *Bin {
	t.Helper()
	b, err := NewBin(h)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewBin(t *testing.T) {
	if _, err := NewBin(0); err == nil {
		t.Fatal("height 0 accepted")
	}
}

func TestPlaceAndAccounting(t *testing.T) {
	b := mustBin(t, 4)
	p1, err := b.PlacePreferred(1, 2, 0, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Width() != 2 || p1.Duration() != 10 {
		t.Fatalf("piece geometry wrong: %+v", p1)
	}
	p2, err := b.PlacePreferred(2, 2, 0, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range p2.Wires {
		if slices.Contains(p1.Wires, w) {
			t.Fatalf("overlapping placements share wires: %v %v", p1.Wires, p2.Wires)
		}
	}
	if _, err := b.PlacePreferred(3, 1, 2, 4, nil); err == nil {
		t.Fatal("overfull interval accepted")
	}
	p3, err := b.PlacePreferred(3, 1, 5, 8, nil)
	if err != nil {
		t.Fatalf("free interval rejected: %v", err)
	}
	if p3.Width() != 1 || p3.Duration() != 3 || !slices.Contains(p2.Wires, p3.Wires[0]) {
		t.Fatalf("piece %+v, want one of core 2's wires, freed at 5, for 3 cycles", p3)
	}
}

func TestPlaceErrors(t *testing.T) {
	b := mustBin(t, 2)
	if _, err := b.PlacePreferred(1, 0, 0, 1, nil); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := b.PlacePreferred(1, 1, -1, 1, nil); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := b.PlacePreferred(1, 1, 5, 5, nil); err == nil {
		t.Error("empty interval accepted")
	}
	if _, err := b.PlacePreferred(1, 3, 0, 1, nil); err == nil {
		t.Error("width beyond bin height accepted")
	}
}

func TestPlacePreferredKeepsWires(t *testing.T) {
	b := mustBin(t, 8)
	p1, err := b.PlacePreferred(1, 3, 0, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Resume after a gap, preferring the original wires: they are free, so
	// the same set must come back.
	p2, err := b.PlacePreferred(1, 3, 20, 30, p1.Wires)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(p1.Wires, p2.Wires) {
		t.Fatalf("preferred wires not kept: %v vs %v", p1.Wires, p2.Wires)
	}
	// Occupy one of them; the resume picks a replacement but keeps the rest.
	if _, err := b.PlacePreferred(2, 1, 40, 50, nil); err != nil { // wire 0 busy for [40,50)
		t.Fatal(err)
	}
	p3, err := b.PlacePreferred(1, 3, 40, 50, p1.Wires)
	if err != nil {
		t.Fatal(err)
	}
	kept := 0
	for _, w := range p3.Wires {
		if slices.Contains(p1.Wires, w) {
			kept++
		}
	}
	if kept < 2 {
		t.Fatalf("kept only %d preferred wires: %v vs %v", kept, p1.Wires, p3.Wires)
	}
}

// Property: random sequences of placements, with random preferred wires,
// against a free-wire count kept by the test itself. A placement succeeds
// exactly when enough wires are free; the piece it returns lists distinct
// in-range wires in ascending order, every one free, and includes every
// free preferred wire it had room for.
func TestRandomPackingProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 1 + rng.Intn(12)
		b, err := NewBin(h)
		if err != nil {
			return false
		}
		var placed []Piece
		free := func(w int, start, end int64) bool {
			for _, p := range placed {
				if p.Start < end && start < p.End && slices.Contains(p.Wires, w) {
					return false
				}
			}
			return true
		}
		for i := 0; i < 40; i++ {
			w := 1 + rng.Intn(h)
			start := int64(rng.Intn(200))
			end := start + int64(1+rng.Intn(50))
			core := 1 + i // distinct cores: same-core overlap not at issue here
			prefer := rng.Perm(h + 2)[:rng.Intn(h+2)]
			for j := range prefer {
				prefer[j]-- // includes -1 and h: out-of-range preferences are ignored
			}
			nFree, preferFree := 0, 0
			for wire := 0; wire < h; wire++ {
				if free(wire, start, end) {
					nFree++
					if slices.Contains(prefer, wire) {
						preferFree++
					}
				}
			}
			p, err := b.PlacePreferred(core, w, start, end, prefer)
			if nFree < w {
				if err == nil {
					t.Logf("placement accepted with %d free < %d", nFree, w)
					return false
				}
				continue
			}
			if err != nil {
				t.Logf("placement rejected with %d free >= %d: %v", nFree, w, err)
				return false
			}
			if p.CoreID != core || p.Start != start || p.End != end || p.Width() != w || !slices.IsSorted(p.Wires) {
				t.Logf("piece %+v, want core %d [%d,%d) on %d sorted wires", p, core, start, end, w)
				return false
			}
			kept := 0
			for j, wire := range p.Wires {
				if wire < 0 || wire >= h || (j > 0 && wire == p.Wires[j-1]) || !free(wire, start, end) {
					t.Logf("piece %+v takes wire %d, which is out of range, repeated or busy", p, wire)
					return false
				}
				if slices.Contains(prefer, wire) {
					kept++
				}
			}
			if kept != min(w, preferFree) {
				t.Logf("piece %+v keeps %d preferred wires of %v, want %d", p, kept, prefer, min(w, preferFree))
				return false
			}
			placed = append(placed, p)
		}
		return len(placed) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
