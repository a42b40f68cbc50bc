// Package pattern generates deterministic per-core test data: scan-in
// stimulus vectors from an LFSR and their expected responses from a golden
// core model, used by the TAM/ATE simulator to move real bits through
// wrapper chains and to count tester data volume from first principles.
//
// The core under test is modeled functionally: the captured response of a
// pattern is a keyed parity function of the stimulus (each response bit is
// the XOR of a core-specific selection of stimulus bits). This "golden
// model" is arbitrary but fixed, which is all a test-scheduling framework
// needs — the same model generates expected responses on the ATE side and
// actual responses in the simulated core, so any transport corruption is
// detected.
package pattern

import (
	"fmt"

	"repro/internal/soc"
	"repro/internal/wrapper"
)

// Vector is one test pattern: the bits shifted in and the bits expected
// back out.
type Vector struct {
	// Stimulus has one bit per scan-in cell (wrapper input/bidir cells +
	// internal scan), in wrapper chain order.
	Stimulus []byte
	// Response has one bit per scan-out cell (internal scan + wrapper
	// output/bidir cells), in wrapper chain order.
	Response []byte
}

// Set is a complete test set for one core at one wrapper design.
type Set struct {
	// CoreID identifies the core.
	CoreID int
	// Vectors holds one entry per pattern.
	Vectors []Vector
	// ScanInBits and ScanOutBits give the per-pattern stimulus/response
	// sizes (summed over all wrapper chains).
	ScanInBits, ScanOutBits int
}

// Generate builds the deterministic test set for a core: stimulus from an
// LFSR seeded by the core ID, responses from the keyed-parity core model.
func Generate(c *soc.Core, d *wrapper.Design) (*Set, error) {
	if c.ID != d.CoreID {
		return nil, fmt.Errorf("pattern: design for core %d used with core %d", d.CoreID, c.ID)
	}
	in, out := 0, 0
	for i := range d.Chains {
		in += d.Chains[i].ScanIn()
		out += d.Chains[i].ScanOut()
	}
	src := defaultLFSR(uint64(c.ID)*0x9E3779B9 + 0x1234567)
	set := &Set{CoreID: c.ID, ScanInBits: in, ScanOutBits: out}
	for p := 0; p < c.Test.Patterns; p++ {
		stim := src.Bits(in)
		set.Vectors = append(set.Vectors, Vector{
			Stimulus: stim,
			Response: Respond(c.ID, stim, out),
		})
	}
	return set, nil
}

// Respond computes the golden core model's response to a stimulus: response
// bit j is the parity of the stimulus bits selected by a (coreID, j)-keyed
// hash. It is pure and deterministic.
func Respond(coreID int, stimulus []byte, outBits int) []byte {
	resp := make([]byte, outBits)
	if len(stimulus) == 0 {
		return resp
	}
	for j := range resp {
		// Select a pseudo-random subset of stimulus positions.
		h := uint64(coreID)*0x100000001B3 + uint64(j)*0x9E3779B97F4A7C15 + 0xCBF29CE484222325
		var bit byte
		// Walk a keyed stride over the stimulus; ~8 taps per output bit.
		stride := int(h%uint64(len(stimulus))) | 1
		idx := int((h >> 17) % uint64(len(stimulus)))
		for k := 0; k < 8; k++ {
			bit ^= stimulus[idx] & 1
			idx = (idx + stride) % len(stimulus)
		}
		resp[j] = bit
	}
	return resp
}
