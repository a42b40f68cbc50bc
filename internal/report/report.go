// Package report renders schedules and experiment results for humans and
// downstream tools: aligned text tables, CSV series, ASCII Gantt charts of
// packed bins (the paper's Fig. 2 view), and standalone SVG plots, all
// using only the standard library.
package report

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"repro/internal/sched"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row of cells (stringified with %v).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprintf("%v", c)
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with column alignment.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			if pad := widths[i] - len(cell); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteString("\n")
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := line(t.Headers); err != nil {
		return err
	}
	var sep []string
	for _, wd := range widths {
		sep = append(sep, strings.Repeat("-", wd))
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	return nil
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	_ = t.Render(&b)
	return b.String()
}

// WriteCSV writes headers plus rows as comma-separated values. Cells
// containing commas or quotes are quoted.
func WriteCSV(w io.Writer, headers []string, rows [][]string) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	writeRow := func(cells []string) error {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = esc(c)
		}
		_, err := fmt.Fprintln(w, strings.Join(out, ","))
		return err
	}
	if err := writeRow(headers); err != nil {
		return err
	}
	for _, r := range rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// pieces returns every piece of the schedule's assignments in (start, core
// ID) order, the order Optimizer.Assemble places them in, so later pieces
// draw over earlier ones the same way for every schedule.
func pieces(sch *sched.Schedule) []sched.Piece {
	var out []sched.Piece
	for _, a := range sch.Assignments {
		out = append(out, a.Pieces...)
	}
	slices.SortFunc(out, func(a, b sched.Piece) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.CoreID, b.CoreID))
	})
	return out
}

// Gantt renders an ASCII Gantt chart of a schedule: one row per TAM wire,
// time on the horizontal axis, each cell showing the core occupying the
// wire (the paper's Fig. 2 bin view). cols is the target chart width in
// characters (default 100).
func Gantt(w io.Writer, sch *sched.Schedule, cols int) error {
	if cols <= 0 {
		cols = 100
	}
	if sch.Makespan == 0 {
		_, err := fmt.Fprintln(w, "(empty schedule)")
		return err
	}
	scale := float64(sch.Makespan) / float64(cols)
	grid := make([][]byte, sch.TAMWidth)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(".", cols))
	}
	glyph := func(coreID int) byte {
		const g = "123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
		return g[(coreID-1)%len(g)]
	}
	for _, p := range pieces(sch) {
		c0 := int(float64(p.Start) / scale)
		c1 := int(float64(p.End)/scale + 0.9999)
		if c1 > cols {
			c1 = cols
		}
		if c0 >= c1 {
			c1 = c0 + 1
			if c1 > cols {
				c0, c1 = cols-1, cols
			}
		}
		for _, wire := range p.Wires {
			for x := c0; x < c1; x++ {
				grid[wire][x] = glyph(p.CoreID)
			}
		}
	}
	fmt.Fprintf(w, "SOC %s  W=%d  testing time=%d cycles  utilization=%.1f%%\n",
		sch.SOC, sch.TAMWidth, sch.Makespan, 100*sch.Utilization())
	fmt.Fprintf(w, "time 0%s%d\n", strings.Repeat(" ", cols-len(fmt.Sprint(sch.Makespan))-5), sch.Makespan)
	for i := len(grid) - 1; i >= 0; i-- {
		if _, err := fmt.Fprintf(w, "w%02d |%s|\n", i, grid[i]); err != nil {
			return err
		}
	}
	// Legend: core id -> glyph, width, time span.
	var ids []int
	for id := range sch.Assignments {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		a := sch.Assignments[id]
		fmt.Fprintf(w, "  %c = core %-3d width %-3d [%d,%d)", glyph(id), id, a.Width, a.Start(), a.End())
		if a.Preemptions > 0 {
			fmt.Fprintf(w, "  preempted %dx (+%d cycles)", a.Preemptions, a.PenaltyCycles)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// SVG renders the packed bin as a standalone SVG document: rectangles
// colored per core, axes labeled in cycles and wires.
func SVG(w io.Writer, sch *sched.Schedule) error {
	const (
		pxW, pxH = 960, 480
		marginL  = 50
		marginB  = 30
		marginT  = 30
	)
	if sch.Makespan == 0 {
		return fmt.Errorf("report: empty schedule")
	}
	plotW := float64(pxW - marginL - 10)
	plotH := float64(pxH - marginB - marginT)
	xScale := plotW / float64(sch.Makespan)
	yScale := plotH / float64(sch.TAMWidth)

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", pxW, pxH)
	fmt.Fprintf(w, `<text x="%d" y="18">SOC %s  W=%d  T=%d cycles  util=%.1f%%</text>`+"\n",
		marginL, sch.SOC, sch.TAMWidth, sch.Makespan, 100*sch.Utilization())
	fmt.Fprintf(w, `<rect x="%d" y="%d" width="%.1f" height="%.1f" fill="none" stroke="black"/>`+"\n",
		marginL, marginT, plotW, plotH)
	palette := []string{
		"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948",
		"#b07aa1", "#ff9da7", "#9c755f", "#bab0ac", "#2f4b7c", "#d45087",
	}
	for _, p := range pieces(sch) {
		color := palette[(p.CoreID-1)%len(palette)]
		x := float64(marginL) + float64(p.Start)*xScale
		wdt := float64(p.End-p.Start) * xScale
		for _, wire := range p.Wires {
			y := float64(marginT) + plotH - float64(wire+1)*yScale
			fmt.Fprintf(w, `<rect x="%.2f" y="%.2f" width="%.2f" height="%.2f" fill="%s" stroke="white" stroke-width="0.3"><title>core %d wire %d [%d,%d)</title></rect>`+"\n",
				x, y, wdt, yScale, color, p.CoreID, wire, p.Start, p.End)
		}
	}
	fmt.Fprintf(w, `<text x="%d" y="%d">0</text>`+"\n", marginL, pxH-10)
	fmt.Fprintf(w, `<text x="%d" y="%d" text-anchor="end">%d cycles</text>`+"\n", pxW-10, pxH-10, sch.Makespan)
	fmt.Fprintf(w, `<text x="5" y="%d">w0</text>`+"\n", pxH-marginB)
	fmt.Fprintf(w, `<text x="5" y="%d">w%d</text>`+"\n", marginT+12, sch.TAMWidth-1)
	fmt.Fprintln(w, `</svg>`)
	return nil
}
