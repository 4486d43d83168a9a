package report

import (
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Title", "a", "bb", "ccc")
	tb.AddRow("1", "2", "3")
	tb.AddRow("10", "20", "30")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "a") || !strings.Contains(lines[1], "ccc") {
		t.Errorf("header line wrong: %q", lines[1])
	}
	if !strings.Contains(lines[4], "30") {
		t.Errorf("last row wrong: %q", lines[4])
	}
}

func TestTableShortRowsPadded(t *testing.T) {
	tb := NewTable("", "x", "y")
	tb.AddRow("only")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "only") {
		t.Error("short row dropped")
	}
}

func TestAsciiPlotBasic(t *testing.T) {
	var sb strings.Builder
	err := AsciiPlot(&sb, "plot", "x", "y", 40, 10,
		Series{Name: "s1", X: []float64{0, 1, 2}, Y: []float64{0, 1, 4}})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "plot") || !strings.Contains(out, "s1") {
		t.Errorf("missing title/legend:\n%s", out)
	}
	if !strings.Contains(out, "*") {
		t.Errorf("no data markers:\n%s", out)
	}
}

func TestAsciiPlotMultiSeriesMarkers(t *testing.T) {
	var sb strings.Builder
	err := AsciiPlot(&sb, "", "x", "y", 30, 8,
		Series{Name: "a", X: []float64{0, 1}, Y: []float64{0, 1}},
		Series{Name: "b", X: []float64{0, 1}, Y: []float64{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "*") || !strings.Contains(out, "o") {
		t.Errorf("distinct markers missing:\n%s", out)
	}
}

func TestAsciiPlotEmpty(t *testing.T) {
	var sb strings.Builder
	if err := AsciiPlot(&sb, "empty", "x", "y", 20, 6); err != nil {
		t.Fatal(err)
	}
	if sb.Len() == 0 {
		t.Error("empty plot rendered nothing")
	}
}

func TestAsciiPlotDegenerateRange(t *testing.T) {
	var sb strings.Builder
	err := AsciiPlot(&sb, "", "x", "y", 20, 6,
		Series{Name: "flat", X: []float64{1, 1}, Y: []float64{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "*") {
		t.Error("degenerate-range series not plotted")
	}
}

func TestAsciiPlotMinimumDimensions(t *testing.T) {
	var sb strings.Builder
	// Tiny dimensions must be clamped, not crash.
	err := AsciiPlot(&sb, "", "x", "y", 1, 1,
		Series{Name: "p", X: []float64{0}, Y: []float64{0}})
	if err != nil {
		t.Fatal(err)
	}
}
