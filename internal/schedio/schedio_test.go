package schedio

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/sched"
)

func TestRoundTrip(t *testing.T) {
	s := bench.Demo()
	sch, err := sched.SweepBest(s, sched.Params{TAMWidth: 16}, []int{5, 10}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sch); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()), s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != sch.Makespan || got.TAMWidth != sch.TAMWidth {
		t.Fatalf("headline mismatch: %d/%d vs %d/%d", got.Makespan, got.TAMWidth, sch.Makespan, sch.TAMWidth)
	}
	for id, a := range sch.Assignments {
		b := got.Assignments[id]
		if b == nil {
			t.Fatalf("core %d missing after round trip", id)
		}
		if a.Width != b.Width || a.BaseTime != b.BaseTime || len(a.Pieces) != len(b.Pieces) {
			t.Fatalf("core %d assignment changed", id)
		}
		for i := range a.Pieces {
			if a.Pieces[i].Start != b.Pieces[i].Start || a.Pieces[i].End != b.Pieces[i].End {
				t.Fatalf("core %d piece %d moved", id, i)
			}
			for j := range a.Pieces[i].Wires {
				if a.Pieces[i].Wires[j] != b.Pieces[i].Wires[j] {
					t.Fatalf("core %d piece %d wires changed", id, i)
				}
			}
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	s := bench.D695()
	sch, err := sched.SweepBest(s, sched.Params{TAMWidth: 32}, []int{10}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/sch.json"
	if err := SaveFile(path, sch); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := Load(f, s)
	if err != nil {
		t.Fatal(err)
	}
	if got.Makespan != sch.Makespan {
		t.Fatal("makespan changed")
	}
	if err := SaveFile(path+".missing/sch.json", sch); err == nil {
		t.Fatal("SaveFile into a missing directory succeeded")
	}
}

func TestLoadRejectsWrongSOC(t *testing.T) {
	s := bench.Demo()
	sch, err := sched.SweepBest(s, sched.Params{TAMWidth: 16}, []int{5}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sch); err != nil {
		t.Fatal(err)
	}
	other := bench.D695()
	if _, err := Load(bytes.NewReader(buf.Bytes()), other); err == nil || !strings.Contains(err.Error(), "for SOC") {
		t.Fatalf("wrong SOC accepted: %v", err)
	}
}

func TestLoadRejectsTampering(t *testing.T) {
	s := bench.Demo()
	sch, err := sched.SweepBest(s, sched.Params{TAMWidth: 16}, []int{5}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sch); err != nil {
		t.Fatal(err)
	}
	base := buf.String()

	cases := []struct {
		name, from, to string
	}{
		{"version", `"version": 1`, `"version": 2`},
		{"makespan", `"makespan": `, `"makespan": 1`}, // prefix-breaks the value
		{"unknown field", `"version": 1`, `"version": 1, "extra": true`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			text := strings.Replace(base, tc.from, tc.to, 1)
			if text == base {
				t.Fatalf("mutation %q did not apply", tc.name)
			}
			if _, err := Load(strings.NewReader(text), s); err == nil {
				t.Fatalf("tampered file (%s) accepted", tc.name)
			}
		})
	}
}

func TestLoadRejectsWireConflicts(t *testing.T) {
	s := bench.Demo()
	sch, err := sched.SweepBest(s, sched.Params{TAMWidth: 16}, []int{5}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sch); err != nil {
		t.Fatal(err)
	}
	// Rewrite every piece's wire list to [0, 1, ...]: overlapping pieces
	// then collide on wire 0 and the exact-replay must fail.
	text := buf.String()
	if !strings.Contains(text, `"wires"`) {
		t.Fatal("no wires in file")
	}
	// Cheap structural corruption: change the first listed wire of every
	// piece to 0. (Some schedules may survive if nothing overlaps; the
	// demo SOC at W=16 always has concurrent tests.)
	mutated := wireZeroRe(text)
	if mutated == text {
		t.Skip("mutation not applicable")
	}
	if _, err := Load(strings.NewReader(mutated), s); err == nil {
		t.Fatal("wire-conflicting file accepted")
	}
}

// TestLoadLeavesWiresToVerify: Load builds the pieces straight from the
// file, sorting each wire list, and wire defects are Verify's to report.
func TestLoadLeavesWiresToVerify(t *testing.T) {
	s := fuzzSOC(t)
	valid, conflict, unsorted := mutatedDocs(t)
	if _, err := Load(bytes.NewReader(conflict), s); err == nil || !strings.Contains(err.Error(), "TAM wire 6 double-booked") {
		t.Fatalf("Load of a wire conflict = %v, want a double-booked wire 6", err)
	}
	sch, err := Load(bytes.NewReader(unsorted), s)
	if err != nil {
		t.Fatalf("Load of an unsorted wire list: %v", err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sch); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), valid) {
		t.Fatalf("unsorted wire list not restored to ascending order:\n%s", buf.Bytes())
	}
	dup := strings.Replace(string(valid), `"cores": [`, `"cores": [{"coreId": 1, "width": 1, "baseTime": 1, "preemptions": 0, "scanIn": 0, "scanOut": 0, "pieces": []},`, 1)
	if _, err := Load(strings.NewReader(dup), s); err == nil || !strings.Contains(err.Error(), "core 1 listed twice") {
		t.Fatalf("Load of a core listed twice = %v", err)
	}
}

// TestLoadMemoryBoundedByDocument: Load allocates in proportion to the
// document, never to the TAM width it claims. A 151-byte file claiming two
// billion wires fails verification after under 1 MiB of allocation.
func TestLoadMemoryBoundedByDocument(t *testing.T) {
	s := fuzzSOC(t)
	if len(hugeWidthDoc) != 151 {
		t.Fatalf("document is %d bytes, want 151", len(hugeWidthDoc))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Load(strings.NewReader(hugeWidthDoc), s)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "fails verification") {
		t.Fatalf("Load = %v, want a verification error", err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("Load allocated %d bytes", alloc)
	if alloc >= 1<<20 {
		t.Fatalf("Load allocated %d bytes for a %d-byte document, want under 1 MiB", alloc, len(hugeWidthDoc))
	}
}

// wireZeroRe rewrites `"wires": [N` to `"wires": [0` everywhere.
func wireZeroRe(text string) string {
	const key = `"wires": [`
	var b strings.Builder
	for {
		i := strings.Index(text, key)
		if i < 0 {
			b.WriteString(text)
			return b.String()
		}
		b.WriteString(text[:i+len(key)])
		text = text[i+len(key):]
		j := 0
		for j < len(text) && text[j] != ',' && text[j] != ']' {
			j++
		}
		b.WriteString("0")
		text = text[j:]
	}
}

func TestSaveIsSorted(t *testing.T) {
	s := bench.Demo()
	sch, err := sched.SweepBest(s, sched.Params{TAMWidth: 16}, []int{5}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, sch); err != nil {
		t.Fatal(err)
	}
	// Core IDs must appear in ascending order for stable diffs.
	text := buf.String()
	last := -1
	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, `"coreId": `) {
			var id int
			if _, err := fmt.Sscanf(line, `"coreId": %d,`, &id); err != nil {
				continue
			}
			if id <= last {
				t.Fatalf("core IDs out of order: %d after %d", id, last)
			}
			last = id
		}
	}
	if last < 1 {
		t.Fatal("no cores found in output")
	}
}
