package pattern

import (
	"fmt"
)

// lfsr is a Fibonacci linear-feedback shift register used as an on-chip
// pseudo-random pattern source. Taps are bit positions (0 = LSB) whose XOR
// feeds the input; state must never be all-zero.
type lfsr struct {
	width int
	taps  []int
	state uint64
}

// newLFSR builds an LFSR of the given width (1..64) with the given taps.
// seed must be non-zero in the low width bits.
func newLFSR(width int, taps []int, seed uint64) (*lfsr, error) {
	if width < 1 || width > 64 {
		return nil, fmt.Errorf("pattern: LFSR width %d outside 1..64", width)
	}
	mask := lfsrMask(width)
	if seed&mask == 0 {
		return nil, fmt.Errorf("pattern: LFSR seed has no bits set within width %d", width)
	}
	if len(taps) == 0 {
		return nil, fmt.Errorf("pattern: LFSR needs at least one tap")
	}
	for _, t := range taps {
		if t < 0 || t >= width {
			return nil, fmt.Errorf("pattern: LFSR tap %d outside width %d", t, width)
		}
	}
	return &lfsr{width: width, taps: append([]int(nil), taps...), state: seed & mask}, nil
}

// defaultLFSR returns a 32-bit LFSR with a maximal-length tap set.
func defaultLFSR(seed uint64) *lfsr {
	l, err := newLFSR(32, []int{31, 21, 1, 0}, seed|1)
	if err != nil {
		panic(err) // static configuration: cannot fail
	}
	return l
}

func lfsrMask(width int) uint64 {
	if width == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << width) - 1
}

// Step advances the register one cycle and returns the output bit.
func (l *lfsr) Step() uint64 {
	out := l.state & 1
	var fb uint64
	for _, t := range l.taps {
		fb ^= (l.state >> uint(t)) & 1
	}
	l.state = (l.state >> 1) | (fb << uint(l.width-1))
	return out
}

// Bits produces the next n output bits.
func (l *lfsr) Bits(n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(l.Step())
	}
	return out
}

// State returns the current register contents.
func (l *lfsr) State() uint64 { return l.state }
