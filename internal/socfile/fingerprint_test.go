package socfile_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/corpus"
	"repro/internal/soc"
	"repro/internal/socfile"
)

// TestValidateNames: a space, a tab, a newline or '#' in the SOC name or
// a core name is rejected, and the error names the kind and the name;
// every built-in and corpus SOC passes.
func TestValidateNames(t *testing.T) {
	good := append(bench.All(), bench.Demo())
	for _, sc := range corpus.All() {
		good = append(good, sc.Build())
	}
	for _, s := range good {
		if err := socfile.ValidateNames(s); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	for _, bad := range []string{"a b", "a\tb", "a\nb", "a#b"} {
		named, onCore := bench.Demo(), bench.Demo()
		named.Name = bad
		onCore.Cores[2].Name = bad
		for s, want := range map[*soc.SOC]string{
			named:  fmt.Sprintf("SOC name %q", bad),
			onCore: fmt.Sprintf("core %d name %q", onCore.Cores[2].ID, bad),
		} {
			err := socfile.ValidateNames(s)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("name %q: err = %v, want one naming %s", bad, err, want)
			}
		}
	}
}

// TestFingerprintCanonical asserts the fingerprint is invariant under the
// non-semantic degrees of freedom (constraint listing order, concurrency
// pair orientation) and sensitive to every semantic change.
func TestFingerprintCanonical(t *testing.T) {
	base := bench.Demo()
	fp := socfile.Fingerprint(base)
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q is not a hex sha256", fp)
	}
	if socfile.Fingerprint(base.Clone()) != fp {
		t.Fatal("clone fingerprints differently")
	}

	// Reversing the constraint lists must not change the fingerprint.
	perm := base.Clone()
	for i, j := 0, len(perm.Precedences)-1; i < j; i, j = i+1, j-1 {
		perm.Precedences[i], perm.Precedences[j] = perm.Precedences[j], perm.Precedences[i]
	}
	for i, j := 0, len(perm.Concurrencies)-1; i < j; i, j = i+1, j-1 {
		perm.Concurrencies[i], perm.Concurrencies[j] = perm.Concurrencies[j], perm.Concurrencies[i]
	}
	if socfile.Fingerprint(perm) != fp {
		t.Fatal("constraint order changed the fingerprint")
	}

	// Flipping a (symmetric) concurrency pair must not change it either.
	if len(base.Concurrencies) == 0 {
		t.Fatal("demo SOC has no concurrency constraints to flip")
	}
	flip := base.Clone()
	cc := flip.Concurrencies[0]
	flip.Concurrencies[0] = soc.Concurrency{A: cc.B, B: cc.A}
	if socfile.Fingerprint(flip) != fp {
		t.Fatal("concurrency orientation changed the fingerprint")
	}

	// Fingerprinting must not mutate the input's constraint lists.
	if base.Concurrencies[0] != cc {
		t.Fatal("Fingerprint mutated its argument")
	}

	// Any semantic change must change the fingerprint.
	mutations := map[string]func(*soc.SOC){
		"pattern count": func(s *soc.SOC) { s.Cores[0].Test.Patterns++ },
		"scan chain":    func(s *soc.SOC) { s.Cores[0].ScanChains[0]++ },
		"soc name":      func(s *soc.SOC) { s.Name += "x" },
		"power budget":  func(s *soc.SOC) { s.PowerMax = 12345 },
		"drop constraint": func(s *soc.SOC) {
			s.Precedences = s.Precedences[:len(s.Precedences)-1]
		},
	}
	for what, mutate := range mutations {
		m := base.Clone()
		mutate(m)
		if socfile.Fingerprint(m) == fp {
			t.Fatalf("changing the %s did not change the fingerprint", what)
		}
	}

	// Distinct benchmark SOCs must not collide.
	seen := map[string]string{fp: "demo8"}
	for _, s := range bench.All() {
		f := socfile.Fingerprint(s)
		if prev, dup := seen[f]; dup {
			t.Fatalf("%s and %s share a fingerprint", prev, s.Name)
		}
		seen[f] = s.Name
	}
}
