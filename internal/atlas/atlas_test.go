package atlas

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"io"
	"strings"
	"testing"

	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/opt"
	"swarmfuzz/internal/svg"
	"swarmfuzz/internal/telemetry"
)

// driveCollector replays a small synthetic two-seed mission into a
// collector: seed one stalls, seed two cracks on its third iterate.
func driveCollector(c *Collector) {
	s1 := svg.Seed{Target: 2, Victim: 0, Direction: gps.Left, Influence: 0.75, VDO: 1.5}
	s2 := svg.Seed{Target: 1, Victim: 3, Direction: gps.Right, Influence: 0.5, VDO: 0.9}
	c.BeginSearch(7, 0.9, 2)

	c.SeedStart(s1)
	for i := 0; i < 4; i++ {
		c.SeedIterate(s1, opt.Iterate{Iter: i, TS: 10 + float64(i), DT: 12, Value: 2.0001, GradNorm: 0.001, StepSize: 0.002})
	}
	c.SeedEnd(s1, 4, false, "")

	c.SeedStart(s2)
	c.SeedIterate(s2, opt.Iterate{Iter: 0, TS: 8, DT: 12, Value: 1.8, GradNorm: 0.4, StepSize: 1.2, Accepted: true})
	c.SeedIterate(s2, opt.Iterate{Iter: 1, TS: 9.2, DT: 12, Value: 0.6, GradNorm: 0.9, StepSize: 2.0, Accepted: true})
	c.SeedIterate(s2, opt.Iterate{Iter: 2, TS: 11.2, DT: 12, Value: -0.25, GradNorm: -1, Accepted: true})
	c.SeedEnd(s2, 3, true, "")

	c.EndSearch(true)
}

func TestCollectorStream(t *testing.T) {
	reg := telemetry.NewRegistry()
	tel := telemetry.New(reg, nil)
	var buf bytes.Buffer
	c := NewCollector(&buf, tel)
	driveCollector(c)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}

	doc, err := ReadAtlas(strings.NewReader("{\"type\":\"atlas\",\"version\":1,\"fuzzer\":\"T\"}\n" + buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Missions) != 1 {
		t.Fatalf("got %d missions, want 1", len(doc.Missions))
	}
	m := doc.Missions[0]
	if m.Mission.Seed != 7 || m.Mission.VDO != 0.9 || m.Mission.Seeds != 2 {
		t.Errorf("mission record = %+v", m.Mission)
	}
	if len(m.Seeds) != 2 {
		t.Fatalf("got %d seed records, want 2", len(m.Seeds))
	}
	if got := m.Seeds[0].Class; got != ClassStalled {
		t.Errorf("seed 1 class = %q, want stalled", got)
	}
	if got := m.Seeds[1].Class; got != ClassCracked {
		t.Errorf("seed 2 class = %q, want cracked", got)
	}
	if m.Seeds[1].Best != -0.25 || m.Seeds[1].Iters != 3 {
		t.Errorf("seed 2 best/iters = %v/%d", m.Seeds[1].Best, m.Seeds[1].Iters)
	}
	if len(m.Seeds[0].Trail) != 4 || len(m.Seeds[1].Trail) != 3 {
		t.Errorf("trail lengths = %d, %d", len(m.Seeds[0].Trail), len(m.Seeds[1].Trail))
	}
	if m.End == nil || !m.End.Found || m.End.Seeds != 2 || m.End.Iters != 7 {
		t.Errorf("mission end = %+v", m.End)
	}
	if m.End.Classes[ClassStalled] != 1 || m.End.Classes[ClassCracked] != 1 {
		t.Errorf("classes = %v", m.End.Classes)
	}
	// The -0.25 crack lands in the ≤0 landscape bucket.
	if m.End.Hist[0] != 1 {
		t.Errorf("hist = %v, want 1 in the collision bucket", m.End.Hist)
	}

	sum := c.Summary()
	if !sum.Cracked || sum.Seeds != 2 || sum.Iters != 7 || sum.Best != -0.25 {
		t.Errorf("summary = %+v", sum)
	}

	// Metrics: one stall, one iters-per-crack observation, and the
	// last finite gradient norm.
	snap := reg.Snapshot()
	if got := snap.Counters[telemetry.MSearchStalls]; got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.MSearchStalls, got)
	}
	if got := snap.Histograms[telemetry.MItersPerCrack].Count; got != 1 {
		t.Errorf("%s count = %d, want 1", telemetry.MItersPerCrack, got)
	}
	if got := snap.Gauges[telemetry.MGradientNorm]; got != 0.9 {
		t.Errorf("%s = %v, want 0.9 (the last probed iterate)", telemetry.MGradientNorm, got)
	}
}

// TestCollectorDeterministic pins byte-identity of two identical
// collector runs.
func TestCollectorDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	ca, cb := NewCollector(&a, nil), NewCollector(&b, nil)
	driveCollector(ca)
	driveCollector(cb)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical collector runs produced different bytes")
	}
	if a.Len() == 0 {
		t.Fatal("collector wrote nothing")
	}
}

func TestClassify(t *testing.T) {
	mk := func(vals ...float64) []TrailPoint {
		tr := make([]TrailPoint, len(vals))
		for i, v := range vals {
			tr[i] = TrailPoint{Iter: i, Value: v}
		}
		return tr
	}
	cases := []struct {
		name  string
		trail []TrailPoint
		found bool
		err   string
		want  string
	}{
		{"error wins", mk(1, 2), false, "boom", ClassError},
		{"cracked wins", mk(3, 2, -1), true, "", ClassCracked},
		{"flat plateau", mk(2, 2.0001, 2.0002, 2.0001), false, "", ClassStalled},
		{"oscillating", mk(2, 3, 1.5, 3.5, 1), false, "", ClassOscillating},
		{"diverged", mk(1, 1.5, 2, 3), false, "", ClassDiverged},
		{"still improving", mk(3, 2, 1.2, 0.5), false, "", ClassExhausted},
		{"too short", mk(2), false, "", ClassExhausted},
		{"empty", nil, false, "", ClassExhausted},
	}
	for _, c := range cases {
		if got := Classify(c.trail, c.found, c.err); got != c.want {
			t.Errorf("%s: Classify = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAggregateCell(t *testing.T) {
	sums := []*MissionSearch{
		{Seeds: 3, Iters: 30, Cracked: true, Best: -0.1,
			Classes: map[string]int{ClassCracked: 1, ClassStalled: 2},
			Hist:    []int{1, 0, 2, 0, 0, 0, 0, 0, 0, 0}},
		nil, // a skipped (unsafe-seed) mission
		{Seeds: 2, Iters: 40, Cracked: false, Best: 0.8,
			Classes: map[string]int{ClassExhausted: 2},
			Hist:    []int{0, 1, 1, 0, 0, 0, 0, 0, 0, 0}},
	}
	st := AggregateCell(5, 10, sums)
	if st.Missions != 2 || st.Cracked != 1 {
		t.Errorf("missions/cracked = %d/%d", st.Missions, st.Cracked)
	}
	if st.CrackRate != 0.5 {
		t.Errorf("crack rate = %v", st.CrackRate)
	}
	if st.MeanItersToCrack != 30 {
		t.Errorf("mean iters to crack = %v, want 30 (only the cracked mission)", st.MeanItersToCrack)
	}
	if st.Seeds != 5 || st.StallFraction != 0.4 {
		t.Errorf("seeds/stall = %d/%v", st.Seeds, st.StallFraction)
	}
	if st.Hist[0] != 1 || st.Hist[2] != 3 {
		t.Errorf("hist = %v", st.Hist)
	}
	if st.Classes[ClassExhausted] != 2 || st.Classes[ClassCracked] != 1 {
		t.Errorf("classes = %v", st.Classes)
	}
}

func TestReadAtlasErrors(t *testing.T) {
	if _, err := ReadAtlas(strings.NewReader("")); err == nil {
		t.Error("empty artifact: want error")
	}
	if _, err := ReadAtlas(strings.NewReader(`{"type":"mission","seed":1}` + "\n")); err == nil {
		t.Error("headerless artifact: want error")
	}
	if _, err := ReadAtlas(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed line: want error")
	}
	// Unknown record types are skipped, not fatal.
	doc, err := ReadAtlas(strings.NewReader(
		`{"type":"atlas","version":1,"fuzzer":"T"}` + "\n" + `{"type":"future_thing","x":1}` + "\n"))
	if err != nil {
		t.Fatalf("unknown type: %v", err)
	}
	if doc.Header.Fuzzer != "T" {
		t.Errorf("header = %+v", doc.Header)
	}
}

// TestReadAtlasTornTail pins crash tolerance: a kill mid-append tears
// at most the artifact's final line, and the intact prefix must stay
// readable — while corruption with lines after it (provably not a torn
// tail) still fails the parse.
func TestReadAtlasTornTail(t *testing.T) {
	prefix := `{"type":"atlas","version":1,"fuzzer":"T"}` + "\n" +
		`{"type":"mission","seed":7}` + "\n"
	for name, tail := range map[string]string{
		"mid-json":   `{"type":"mission","se`,
		"mid-json-n": `{"type":"mission","se` + "\n",
		"garbage":    "\x00\x00\x00",
	} {
		doc, err := ReadAtlas(strings.NewReader(prefix + tail))
		if err != nil {
			t.Errorf("%s torn tail: %v", name, err)
			continue
		}
		if len(doc.Missions) != 1 || doc.Missions[0].Mission.Seed != 7 {
			t.Errorf("%s torn tail dropped the intact prefix: %+v", name, doc.Missions)
		}
	}

	// A malformed line with a successor is mid-file corruption, not a
	// torn tail.
	_, err := ReadAtlas(strings.NewReader(
		`{"type":"atlas","version":1,"fuzzer":"T"}` + "\n" +
			"not json\n" +
			`{"type":"mission","seed":7}` + "\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("mid-file corruption: err = %v, want line 2 parse error", err)
	}
}

// gridArtifact writes a one-cell grid artifact: header, cell, the
// driveCollector mission, cell end and atlas end.
func gridArtifact(tb testing.TB) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := WriteHeader(&buf, "SwarmFuzz"); err != nil {
		tb.Fatal(err)
	}
	if err := WriteCell(&buf, 5, 10); err != nil {
		tb.Fatal(err)
	}
	c := NewCollector(&buf, nil)
	driveCollector(c)
	if err := c.Err(); err != nil {
		tb.Fatal(err)
	}
	sum := c.Summary()
	if err := WriteCellEnd(&buf, AggregateCell(5, 10, []*MissionSearch{&sum})); err != nil {
		tb.Fatal(err)
	}
	if err := WriteAtlasEnd(&buf, 1, 1); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// headerEnd returns the offset just past the newline that ends data's
// first header record, or -1 when no complete line holds one.
func headerEnd(data []byte) int {
	for off := 0; ; {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return -1
		}
		line := data[off : off+nl]
		var probe struct {
			Type string `json:"type"`
		}
		var h Header
		if json.Unmarshal(line, &probe) == nil && probe.Type == TypeHeader && json.Unmarshal(line, &h) == nil {
			return off + nl + 1
		}
		off += nl + 1
	}
}

// FuzzReadAtlas feeds ReadAtlas arbitrary bytes. It must never panic,
// and whenever it accepts an artifact it must accept every prefix that
// still holds the header line and its newline: such a cut is an
// artifact whose writer stopped early.
func FuzzReadAtlas(f *testing.F) {
	art := gridArtifact(f)
	hdr := headerEnd(art)
	for _, cut := range []int{0, 1, hdr - 1, hdr, hdr + 9, len(art) / 2, len(art) - 2, len(art)} {
		f.Add(art, uint(cut))         // the artifact, cut there
		f.Add(art[:cut], uint(cut/2)) // a torn artifact, cut again
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		if _, err := ReadAtlas(bytes.NewReader(data)); err != nil {
			return
		}
		hdr := headerEnd(data)
		if hdr < 0 {
			return
		}
		k := hdr + int(cut%uint(len(data)-hdr+1))
		if _, err := ReadAtlas(bytes.NewReader(data[:k])); err != nil {
			t.Fatalf("accepted a %d-byte artifact but rejected its %d-byte prefix: %v", len(data), k, err)
		}
	})
}

// TestRenderXHTMLWellFormed builds a grid-shaped artifact and asserts
// the rendered page parses with a strict XML decoder.
func TestRenderXHTMLWellFormed(t *testing.T) {
	doc, err := ReadAtlas(bytes.NewReader(gridArtifact(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) != 1 || doc.Cells[0].End == nil {
		t.Fatalf("cells = %+v", doc.Cells)
	}
	if doc.End == nil || doc.End.Cells != 1 || doc.End.Missions != 1 {
		t.Fatalf("end = %+v", doc.End)
	}

	var page bytes.Buffer
	if err := RenderXHTML(doc, &page); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(page.Bytes(), []byte("<!DOCTYPE html>")) {
		t.Error("missing DOCTYPE")
	}
	dec := xml.NewDecoder(bytes.NewReader(page.Bytes()))
	elems := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("atlas page is not well-formed XML: %v", err)
		}
		if _, ok := tok.(xml.StartElement); ok {
			elems++
		}
	}
	if elems < 20 {
		t.Errorf("suspiciously small page: %d elements", elems)
	}
	for _, want := range []string{"Crack-rate heatmap", "Convergence trails", "heatmap", "polyline"} {
		if !bytes.Contains(page.Bytes(), []byte(want)) {
			t.Errorf("page missing %q", want)
		}
	}
}
