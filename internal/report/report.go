// Package report renders experiment results as plain-text tables,
// ASCII line plots, and CSV files. The experiment harness uses it to
// print the paper's tables and figures on a terminal without any
// plotting dependency.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row. Cells beyond the header width are kept; short
// rows are padded with empty cells when rendered.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) error {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(cells []string) {
		for i, c := range cells {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.headers)
	for _, r := range t.rows {
		measure(r)
	}

	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(cols-1)))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Series is one named line of (x, y) points for an ASCII plot.
type Series struct {
	Name string
	X, Y []float64
}

// AsciiPlot renders one or more series as a fixed-size ASCII chart.
// Each series is drawn with a distinct marker character. It is meant
// for eyeballing shapes (CDFs, cumulative success curves), not for
// precision.
func AsciiPlot(w io.Writer, title, xlabel, ylabel string, width, height int, series ...Series) error {
	if width < 16 {
		width = 16
	}
	if height < 6 {
		height = 6
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range series {
		for i := range s.X {
			minX, maxX = math.Min(minX, s.X[i]), math.Max(maxX, s.X[i])
			minY, maxY = math.Min(minY, s.Y[i]), math.Max(maxY, s.Y[i])
		}
	}
	if math.IsInf(minX, 1) {
		// No data at all: render an empty frame.
		minX, maxX, minY, maxY = 0, 1, 0, 1
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	markers := []byte{'*', 'o', '+', 'x', '#', '@'}
	for si, s := range series {
		m := markers[si%len(markers)]
		for i := range s.X {
			col := int(math.Round((s.X[i] - minX) / (maxX - minX) * float64(width-1)))
			row := int(math.Round((s.Y[i] - minY) / (maxY - minY) * float64(height-1)))
			grid[height-1-row][col] = m
		}
	}

	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	fmt.Fprintf(&b, "%s\n", ylabel)
	fmt.Fprintf(&b, "%8.2f +%s\n", maxY, strings.Repeat("-", width))
	for r := 0; r < height; r++ {
		fmt.Fprintf(&b, "%8s |%s\n", "", string(grid[r]))
	}
	fmt.Fprintf(&b, "%8.2f +%s\n", minY, strings.Repeat("-", width))
	fmt.Fprintf(&b, "%9s%-8.2f%s%8.2f\n", "", minX, strings.Repeat(" ", max(0, width-16)), maxX)
	fmt.Fprintf(&b, "%9s%s\n", "", xlabel)
	legend := make([]string, 0, len(series))
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", markers[si%len(markers)], s.Name))
	}
	if len(legend) > 0 {
		fmt.Fprintf(&b, "%9s%s\n", "", strings.Join(legend, "   "))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
