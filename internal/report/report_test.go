package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/sched"
)

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Headers: []string{"a", "long-header", "c"},
	}
	tab.AddRow(1, "x", 3.5)
	tab.AddRow("wide-cell-value", "y", 2)
	out := tab.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "long-header") {
		t.Fatalf("render missing parts:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + header + separator + 2 rows
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	// Separator row uses dashes sized to the widest cell.
	if !strings.Contains(lines[2], strings.Repeat("-", len("wide-cell-value"))) {
		t.Fatalf("separator not sized to cells:\n%s", out)
	}
}

func TestWriteCSVQuoting(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, []string{"a", "b"}, [][]string{
		{"plain", `has"quote`},
		{"with,comma", "line\nbreak"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"has""quote"`) {
		t.Fatalf("quote escaping wrong:\n%s", out)
	}
	if !strings.Contains(out, `"with,comma"`) {
		t.Fatalf("comma quoting wrong:\n%s", out)
	}
}

func demoSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	s := bench.Demo()
	sch, err := sched.Run(s, sched.Params{TAMWidth: 12, Percent: 5, Delta: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sch
}

func TestGantt(t *testing.T) {
	sch := demoSchedule(t)
	var buf bytes.Buffer
	if err := Gantt(&buf, sch, 80); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// One row per wire plus header/legend.
	for w := 0; w < sch.TAMWidth; w++ {
		if !strings.Contains(out, "w0") {
			t.Fatalf("missing wire rows:\n%s", out)
		}
	}
	if !strings.Contains(out, "testing time") {
		t.Fatalf("missing header:\n%s", out)
	}
	// Every core appears in the legend.
	for id := range sch.Assignments {
		if !strings.Contains(out, "core "+itoa(id)) {
			t.Fatalf("core %d missing from legend:\n%s", id, out)
		}
	}
	// Default width fallback.
	var buf2 bytes.Buffer
	if err := Gantt(&buf2, sch, 0); err != nil {
		t.Fatal(err)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestSVG(t *testing.T) {
	sch := demoSchedule(t)
	var buf bytes.Buffer
	if err := SVG(&buf, sch); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Fatalf("not an SVG document:\n%.200s", out)
	}
	if strings.Count(out, "<rect") < len(sch.Assignments) {
		t.Fatalf("too few rectangles: %d", strings.Count(out, "<rect"))
	}
	if !strings.Contains(out, "cycles") {
		t.Fatal("missing axis label")
	}
}
