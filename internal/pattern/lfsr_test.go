package pattern

import (
	"testing"
)

func TestLFSRValidation(t *testing.T) {
	if _, err := newLFSR(0, []int{0}, 1); err == nil {
		t.Error("width 0 accepted")
	}
	if _, err := newLFSR(65, []int{0}, 1); err == nil {
		t.Error("width 65 accepted")
	}
	if _, err := newLFSR(8, []int{0}, 0); err == nil {
		t.Error("zero seed accepted")
	}
	if _, err := newLFSR(8, nil, 1); err == nil {
		t.Error("no taps accepted")
	}
	if _, err := newLFSR(8, []int{8}, 1); err == nil {
		t.Error("tap beyond width accepted")
	}
	if _, err := newLFSR(8, []int{7, 5, 4, 3}, 0xFF00); err == nil {
		t.Error("seed outside width accepted")
	}
}

func TestLFSRMaximalPeriod(t *testing.T) {
	// Feedback x^4 + x + 1 (taps 1 and 0) is primitive: period 15.
	l, err := newLFSR(4, []int{1, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p := l.Period(); p != 15 {
		t.Fatalf("period = %d, want 15", p)
	}
	// Feedback x^8 + x^4 + x^3 + x^2 + 1 (taps 4,3,2,0): period 255.
	l8, err := newLFSR(8, []int{4, 3, 2, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p := l8.Period(); p != 255 {
		t.Fatalf("8-bit period = %d, want 255", p)
	}
}

func TestLFSRNonInvertiblePeriod(t *testing.T) {
	// Without tap 0 the map is not invertible: the start state may never
	// recur, and Period must report that instead of hanging.
	l, err := newLFSR(4, []int{3, 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if p := l.Period(); p != -1 && p <= 0 {
		t.Fatalf("period = %d; want -1 or a positive cycle", p)
	}
}

func TestLFSRNeverZero(t *testing.T) {
	// With tap 0 included the update is invertible, so a nonzero seed can
	// never reach the all-zero lockup state (x^6 + x + 1 is primitive).
	l, err := newLFSR(6, []int{1, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		l.Step()
		if l.State() == 0 {
			t.Fatal("LFSR reached the all-zero lockup state")
		}
	}
}

func TestLFSRBits(t *testing.T) {
	l := defaultLFSR(42)
	bits := l.Bits(64)
	if len(bits) != 64 {
		t.Fatalf("Bits(64) returned %d", len(bits))
	}
	ones := 0
	for _, b := range bits {
		if b > 1 {
			t.Fatalf("non-binary output %d", b)
		}
		ones += int(b)
	}
	if ones == 0 || ones == 64 {
		t.Fatalf("degenerate bit stream: %d ones of 64", ones)
	}
	// Determinism: same seed, same stream.
	l2 := defaultLFSR(42)
	for i, b := range l2.Bits(64) {
		if b != bits[i] {
			t.Fatal("same seed produced different streams")
		}
	}
}
