package socfile

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/soc"
)

const sample = `
# A small SOC.
SocName tiny
PowerMax 500
TotalCores 3

Core 1 alpha
  Inputs 4 Outputs 3 Bidirs 1
  ScanChains 2 : 10 12
  Test Patterns 20

Core 2 beta
  Parent 1
  Inputs 2 Outputs 2 Bidirs 0
  Test Patterns 5 Power 44

Core 3 gamma
  Inputs 1 Outputs 1 Bidirs 0
  ScanChains 1 : 8
  Test Patterns 7 Kind bist Engine 0

Precedence 3 1
Concurrency 1 3
`

func TestParseSample(t *testing.T) {
	s, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "tiny" || s.PowerMax != 500 || len(s.Cores) != 3 {
		t.Fatalf("parsed header wrong: %+v", s)
	}
	c1 := s.Core(1)
	if c1.Name != "alpha" || c1.Inputs != 4 || c1.Outputs != 3 || c1.Bidirs != 1 {
		t.Fatalf("core 1 wrong: %+v", c1)
	}
	if !reflect.DeepEqual(c1.ScanChains, []int{10, 12}) || c1.Test.Patterns != 20 {
		t.Fatalf("core 1 scan/test wrong: %+v", c1)
	}
	if c1.Test.BISTEngine != -1 || c1.Test.Kind != soc.ScanTest {
		t.Fatalf("core 1 defaults wrong: %+v", c1.Test)
	}
	c2 := s.Core(2)
	if c2.Parent != 1 || c2.Test.Power != 44 {
		t.Fatalf("core 2 wrong: %+v", c2)
	}
	c3 := s.Core(3)
	if c3.Test.Kind != soc.BISTTest || c3.Test.BISTEngine != 0 {
		t.Fatalf("core 3 wrong: %+v", c3.Test)
	}
	if len(s.Precedences) != 1 || s.Precedences[0] != (soc.Precedence{Before: 3, After: 1}) {
		t.Fatalf("precedences wrong: %+v", s.Precedences)
	}
	if len(s.Concurrencies) != 1 || s.Concurrencies[0] != (soc.Concurrency{A: 1, B: 3}) {
		t.Fatalf("concurrencies wrong: %+v", s.Concurrencies)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"unknown keyword", "SocName x\nBogus 1\n", "unexpected keyword"},
		{"socname args", "SocName\n", "SocName wants"},
		{"bad totalcores", "SocName x\nTotalCores seven\n", "bad integer"},
		{"totalcores mismatch", "SocName x\nTotalCores 2\nCore 1 a\n Inputs 1 Outputs 1 Bidirs 0\n Test Patterns 1\n", "TotalCores says 2"},
		{"core args", "SocName x\nCore 1\n", "Core wants"},
		{"core bad id", "SocName x\nCore one a\n", "bad id"},
		{"bad io line", "SocName x\nCore 1 a\n Inputs 1 Outputs 1\n", "Inputs <n> Outputs <n> Bidirs <n>"},
		{"scan colon", "SocName x\nCore 1 a\n ScanChains 2 10 12\n", "ScanChains"},
		{"scan count", "SocName x\nCore 1 a\n ScanChains 2 : 10\n", "lengths declared"},
		{"missing test", "SocName x\nCore 1 a\n Inputs 1 Outputs 1 Bidirs 0\n", "no Test line"},
		{"missing test before next", "SocName x\nCore 1 a\n Inputs 1 Outputs 1 Bidirs 0\nCore 2 b\n Inputs 1 Outputs 1 Bidirs 0\n Test Patterns 1\n", "no Test line"},
		{"test dangling key", "SocName x\nCore 1 a\n Inputs 1 Outputs 1 Bidirs 0\n Test Patterns\n", "has no value"},
		{"test bad kind", "SocName x\nCore 1 a\n Inputs 1 Outputs 1 Bidirs 0\n Test Patterns 1 Kind magic\n", "want scan|bist"},
		{"test unknown key", "SocName x\nCore 1 a\n Inputs 1 Outputs 1 Bidirs 0\n Test Patterns 1 Foo 2\n", "unknown key"},
		{"precedence args", "SocName x\nCore 1 a\n Inputs 1 Outputs 1 Bidirs 0\n Test Patterns 1\nPrecedence 1\n", "wants 2 arguments"},
		{"validation failure", "SocName x\nCore 1 a\n Inputs 1 Outputs 1 Bidirs 0\n Test Patterns 0\n", "non-positive pattern"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.text))
			if err == nil {
				t.Fatalf("accepted %q", tc.text)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	text := "# leading\n\nSocName x # trailing\n\nCore 1 a # c\n Inputs 1 Outputs 1 Bidirs 0\n Test Patterns 3\n"
	s, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "x" || s.Core(1).Test.Patterns != 3 {
		t.Fatalf("comment handling wrong: %+v", s)
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	text := "SocName x\n\n\nBogus here\n"
	_, err := Parse(strings.NewReader(text))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("want line 4 in error, got %v", err)
	}
}

// randomSOC builds a random valid SOC from quick's rand source.
func randomSOC(rng *rand.Rand) *soc.SOC {
	n := 1 + rng.Intn(8)
	s := &soc.SOC{Name: "q" + string(rune('a'+rng.Intn(26)))}
	if rng.Intn(2) == 0 {
		s.PowerMax = 1 + rng.Intn(10000)
	}
	for id := 1; id <= n; id++ {
		c := &soc.Core{
			ID:      id,
			Name:    "c" + string(rune('a'+rng.Intn(26))) + string(rune('0'+id%10)),
			Inputs:  rng.Intn(50),
			Outputs: rng.Intn(50),
			Bidirs:  rng.Intn(10),
			Test:    soc.Test{Patterns: 1 + rng.Intn(400), BISTEngine: -1},
		}
		if c.Inputs+c.Outputs+c.Bidirs == 0 {
			c.Inputs = 1
		}
		if id > 1 && rng.Intn(3) == 0 {
			c.Parent = 1 + rng.Intn(id-1)
		}
		for j := rng.Intn(6); j > 0; j-- {
			c.ScanChains = append(c.ScanChains, 1+rng.Intn(300))
		}
		if rng.Intn(4) == 0 {
			c.Test.Kind = soc.BISTTest
			c.Test.BISTEngine = rng.Intn(3)
		}
		if rng.Intn(3) == 0 {
			c.Test.Power = 1 + rng.Intn(5000)
		}
		s.Cores = append(s.Cores, c)
	}
	if n >= 2 {
		for k := rng.Intn(3); k > 0; k-- {
			a, b := 1+rng.Intn(n), 1+rng.Intn(n)
			if a < b {
				s.Precedences = append(s.Precedences, soc.Precedence{Before: a, After: b})
			}
			if a != b {
				s.Concurrencies = append(s.Concurrencies, soc.Concurrency{A: a, B: b})
			}
		}
	}
	return s
}

// TestRoundTripProperty: Parse(Write(s)) reproduces s exactly, for random
// valid SOCs.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSOC(rng)
		if err := s.Validate(); err != nil {
			t.Logf("generator produced invalid SOC: %v", err)
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, s); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		got, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Logf("parse: %v\n%s", err, buf.String())
			return false
		}
		if !reflect.DeepEqual(normalize(s), normalize(got)) {
			t.Logf("round-trip mismatch:\nin:  %+v\nout: %+v\ntext:\n%s", s, got, buf.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// normalize maps nil and empty slices together for comparison.
func normalize(s *soc.SOC) *soc.SOC {
	c := s.Clone()
	if len(c.Precedences) == 0 {
		c.Precedences = nil
	}
	if len(c.Concurrencies) == 0 {
		c.Concurrencies = nil
	}
	for _, core := range c.Cores {
		if len(core.ScanChains) == 0 {
			core.ScanChains = nil
		}
	}
	return c
}

func TestWriteFileParseFile(t *testing.T) {
	s, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/x.soc"
	if err := WriteFile(path, s); err != nil {
		t.Fatal(err)
	}
	got, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(s), normalize(got)) {
		t.Fatal("file round-trip mismatch")
	}
	if _, err := ParseFile(path + ".missing"); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := WriteFile(path+".missing/x.soc", s); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}
