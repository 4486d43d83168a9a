package flightlog

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/graph"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/svg"
)

var update = flag.Bool("update", false, "rewrite golden flight logs")

// testMission returns a short deterministic mission small enough that a
// full flight log stays a few kilobytes.
func testMission(t *testing.T, n int, seed uint64) *sim.Mission {
	t.Helper()
	cfg := sim.DefaultMissionConfig(n, seed)
	cfg.MissionLength = 40
	cfg.MaxTime = 10
	cfg.SampleEvery = 20
	m, err := sim.NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testController(t *testing.T) *flock.Controller {
	t.Helper()
	c, err := flock.New(flock.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// recordFixture records the full artifact set one fuzzing mission
// produces: clean run, SVG, seed schedule, search trail, a finding, and
// its witness run.
func recordFixture(t *testing.T, log *MissionLog, m *sim.Mission, ctrl sim.Controller) {
	t.Helper()
	if _, err := sim.Run(m, sim.RunOptions{Controller: ctrl, Flight: log.Recorder("clean")}); err != nil {
		t.Fatal(err)
	}

	g := graph.NewDigraph(3)
	// Scrambled insertion order: the log must emit edges sorted anyway.
	for _, e := range []struct {
		u, v int
		w    float64
	}{{2, 0, 0.25}, {0, 2, 0.5}, {0, 1, 1.5}, {1, 0, 0.75}} {
		if err := g.SetEdge(e.u, e.v, e.w); err != nil {
			t.Fatal(err)
		}
	}
	log.SVG(gps.Right, g)

	seed := svg.Seed{Target: 0, Victim: 1, Direction: gps.Right, Influence: 1.5, VDO: 2.25}
	log.Seeds([]svg.Seed{seed})
	log.Search(seed, 0, 2, 1, 3.5)
	log.Search(seed, 1, 2.5, 1.5, 1.25)

	plan := gps.SpoofPlan{Target: 0, Start: 2.5, Duration: 1.5, Direction: gps.Right, Distance: 10}
	log.Finding(plan, 1, 1.25)
	if _, err := sim.Run(m, sim.RunOptions{Controller: ctrl, Spoof: &plan, Flight: log.Recorder("witness")}); err != nil {
		t.Fatal(err)
	}
	log.Note("fixture", "flightlog test")
}

func TestRoundTrip(t *testing.T) {
	m := testMission(t, 3, 1)
	ctrl := testController(t)
	var buf bytes.Buffer
	log := New(&buf, ctrl)
	recordFixture(t, log, m, ctrl)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := ReadFlight(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mission == nil {
		t.Fatal("no mission header")
	}
	if f.Mission.NumDrones != 3 || f.Mission.Seed != 1 {
		t.Errorf("mission header = %+v, want 3 drones seed 1", f.Mission)
	}
	if len(f.Mission.Start) != 3 || len(f.Mission.Obstacles) != 1 {
		t.Errorf("header has %d starts, %d obstacles", len(f.Mission.Start), len(f.Mission.Obstacles))
	}
	if len(f.Runs) != 2 {
		t.Fatalf("got %d runs, want clean+witness", len(f.Runs))
	}

	clean := f.Run("clean")
	if clean == nil || clean.Spoof != nil {
		t.Fatalf("clean run = %+v, want present without spoof", clean)
	}
	if len(clean.Steps) == 0 {
		t.Fatal("clean run recorded no steps")
	}
	if clean.End == nil || clean.End.Err != "" {
		t.Errorf("clean run end = %+v, want clean completion record", clean.End)
	}
	for _, s := range clean.Steps {
		if s.SpoofActive {
			t.Errorf("step %d marked spoof-active in a clean run", s.Step)
		}
		if len(s.Drones) != 3 {
			t.Fatalf("step %d has %d drones", s.Step, len(s.Drones))
		}
		if s.MinSep <= 0 || s.MinClear == 0 {
			t.Errorf("step %d minima: sep=%v clear=%v", s.Step, s.MinSep, s.MinClear)
		}
		for _, d := range s.Drones {
			if d.Terms == nil {
				t.Fatalf("step %d drone %d has no term decomposition", s.Step, d.ID)
			}
			if d.GPS == d.Pos {
				t.Errorf("step %d drone %d GPS identical to true position (no noise?)", s.Step, d.ID)
			}
		}
	}

	witness := f.Run("witness")
	if witness == nil || witness.Spoof == nil {
		t.Fatal("witness run missing or lacks spoof record")
	}
	if witness.Spoof.Target != 0 || witness.Spoof.Start != 2.5 || witness.Spoof.Duration != 1.5 {
		t.Errorf("witness spoof = %+v", witness.Spoof)
	}
	var active, spoofedSeen bool
	for _, s := range witness.Steps {
		if !s.SpoofActive {
			continue
		}
		active = true
		for _, d := range s.Drones {
			if d.ID == 0 && d.Spoofed {
				spoofedSeen = true
			}
		}
	}
	if !active {
		t.Error("witness run has no spoof-active steps despite sampling inside the window")
	}
	if !spoofedSeen {
		t.Error("target drone never marked spoofed during the active window")
	}

	if len(f.SVGs) != 1 || f.SVGs[0].Nodes != 3 {
		t.Fatalf("SVGs = %+v", f.SVGs)
	}
	wantEdges := []EdgeRecord{{0, 1, 1.5}, {0, 2, 0.5}, {1, 0, 0.75}, {2, 0, 0.25}}
	if len(f.SVGs[0].Edges) != len(wantEdges) {
		t.Fatalf("edges = %+v", f.SVGs[0].Edges)
	}
	for i, e := range f.SVGs[0].Edges {
		if e != wantEdges[i] {
			t.Errorf("edge %d = %+v, want %+v (sorted)", i, e, wantEdges[i])
		}
	}
	if len(f.Seeds) != 1 || f.Seeds[0].Target != 0 || f.Seeds[0].Victim != 1 {
		t.Errorf("seeds = %+v", f.Seeds)
	}
	if len(f.Search) != 2 || f.Search[1].Iter != 1 || f.Search[1].Value != 1.25 {
		t.Errorf("search = %+v", f.Search)
	}
	if len(f.Findings) != 1 || f.Findings[0].Victim != 1 || f.Findings[0].Spoof.Target != 0 {
		t.Errorf("findings = %+v", f.Findings)
	}
	if len(f.Notes) != 1 || f.Notes[0].Key != "fixture" {
		t.Errorf("notes = %+v", f.Notes)
	}
}

// TestGoldenFlightLog pins the JSONL encoding byte-for-byte: a
// fixed-seed mission must produce an identical log across runs and
// releases, because committed flight logs are long-lived forensic
// artifacts. Regenerate with `go test ./internal/flightlog -update`
// after an intentional schema change.
func TestGoldenFlightLog(t *testing.T) {
	m := testMission(t, 3, 1)
	ctrl := testController(t)
	var buf bytes.Buffer
	log := New(&buf, ctrl)
	recordFixture(t, log, m, ctrl)
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "golden_n3_seed1.flight.jsonl")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, exp := buf.Bytes(), want
		line := 1
		for i := 0; i < len(got) && i < len(exp); i++ {
			if got[i] != exp[i] {
				t.Fatalf("flight log deviates from golden at byte %d (line %d); run with -update if the schema change is intentional", i, line)
			}
			if got[i] == '\n' {
				line++
			}
		}
		t.Fatalf("flight log length %d != golden %d; run with -update if the schema change is intentional", len(got), len(exp))
	}
}

// TestDeterministicAcrossRecordings runs the same fixture twice and
// requires byte-identical output — the property the golden test relies
// on, checked without touching testdata.
func TestDeterministicAcrossRecordings(t *testing.T) {
	ctrl := testController(t)
	record := func() []byte {
		m := testMission(t, 3, 7)
		var buf bytes.Buffer
		log := New(&buf, ctrl)
		recordFixture(t, log, m, ctrl)
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := record(), record()
	if !bytes.Equal(a, b) {
		t.Error("two recordings of the same mission differ")
	}
}

func TestNilTermSourceOmitsTerms(t *testing.T) {
	m := testMission(t, 3, 1)
	ctrl := testController(t)
	var buf bytes.Buffer
	log := New(&buf, nil)
	if _, err := sim.Run(m, sim.RunOptions{Controller: ctrl, Flight: log.Recorder("clean")}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"terms"`) {
		t.Error("terms emitted despite nil TermSource")
	}
	f, err := ReadFlight(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if run := f.Run("clean"); run == nil || len(run.Steps) == 0 {
		t.Fatal("clean run not recorded")
	}
}

// failAfter errors on the nth write and counts attempts past it.
type failAfter struct {
	n     int
	calls int
}

func (w *failAfter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.n {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestWriteErrorsAreSticky(t *testing.T) {
	m := testMission(t, 3, 1)
	ctrl := testController(t)
	// A tiny buffer forces flushes through the failing writer early.
	log := &MissionLog{terms: ctrl}
	w := &failAfter{n: 0}
	log.w = bufio.NewWriterSize(w, 1)
	if _, err := sim.Run(m, sim.RunOptions{Controller: ctrl, Flight: log.Recorder("clean")}); err != nil {
		t.Fatalf("recording error leaked into the mission: %v", err)
	}
	if log.err == nil {
		t.Fatal("write error did not latch")
	}
	if err := log.Close(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("Close() = %v, want the latched disk-full error", err)
	}
	// After latching, further records are dropped without new writes.
	calls := w.calls
	log.Note("k", "v")
	if w.calls != calls {
		t.Error("write attempted after the error latched")
	}
}

func TestArchiveCreateAndReadBack(t *testing.T) {
	dir := t.TempDir()
	ctrl := testController(t)
	m := testMission(t, 3, 1)
	log, path, err := Create(filepath.Join(dir, "flights"), "n3_seed1", ctrl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(m, sim.RunOptions{Controller: ctrl, Flight: log.Recorder("clean")}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "n3_seed1.flight.jsonl" {
		t.Errorf("path = %q", path)
	}
	f, err := ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mission == nil || len(f.Runs) != 1 || len(f.Runs[0].Steps) == 0 {
		t.Fatalf("archived flight incomplete: %+v", f)
	}
}

// TestArchiveNames pins the file names the CLIs, the daemon and the
// campaign forensics all derive from MissionName and PostmortemPath.
func TestArchiveNames(t *testing.T) {
	if got := MissionName(15, 7.5, 1003); got != "n15_d7.5_seed1003" {
		t.Errorf("MissionName = %q", got)
	}
	if got := MissionName(5, 10, 3); got != "n5_d10_seed3" {
		t.Errorf("MissionName = %q", got)
	}
	if got := PostmortemPath(filepath.Join("flights", "n5_d10_seed3.flight.jsonl")); got != filepath.Join("flights", "n5_d10_seed3.postmortem.html") {
		t.Errorf("PostmortemPath = %q", got)
	}
}

func TestReadFlightSkipsUnknownTypes(t *testing.T) {
	in := strings.NewReader(
		`{"type":"mission","n":2,"seed":1}` + "\n" +
			`{"type":"hologram","payload":"future"}` + "\n" +
			`{"type":"note","key":"k","value":"v"}` + "\n")
	f, err := ReadFlight(in)
	if err != nil {
		t.Fatal(err)
	}
	if f.Mission == nil || len(f.Notes) != 1 {
		t.Errorf("known records lost around the unknown one: %+v", f)
	}
}

// TestReadFlightReportsLineNumbers keeps corruption fatal and located:
// a malformed line that ends in a newline, or one followed by more
// lines, is not a torn write.
func TestReadFlightReportsLineNumbers(t *testing.T) {
	for _, in := range []string{
		`{"type":"mission"}` + "\n" + `{broken` + "\n",
		`{"type":"mission"}` + "\n" + `{broken` + "\n" + `{"type":"note","key":"k","value":"v"}`,
		`{"type":"mission"}` + "\n" + `{"type":"step","run":"clean","step":"x"}` + "\n",
	} {
		if _, err := ReadFlight(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("%q: err = %v, want a line-2 parse error", in, err)
		}
	}
}
