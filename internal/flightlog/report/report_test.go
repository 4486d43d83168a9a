package report

import (
	"bytes"
	"encoding/xml"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swarmfuzz/internal/flightlog"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/sim"
)

func testController(t *testing.T) *flock.Controller {
	t.Helper()
	c, err := flock.New(flock.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// recordedFlight returns a parsed flight with a clean run, a spoofed
// witness run, and a finding — the shape a cracked mission produces.
func recordedFlight(t *testing.T) *flightlog.Flight {
	t.Helper()
	ctrl := testController(t)
	cfg := sim.DefaultMissionConfig(3, 1)
	cfg.MissionLength = 40
	cfg.MaxTime = 10
	cfg.SampleEvery = 20
	m, err := sim.NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	log := flightlog.New(&buf, ctrl)
	if _, err := sim.Run(m, sim.RunOptions{Controller: ctrl, Flight: log.Recorder("clean")}); err != nil {
		t.Fatal(err)
	}
	plan := gps.SpoofPlan{Target: 0, Start: 2, Duration: 3, Direction: gps.Right, Distance: 10}
	log.Finding(plan, 1, 0.5)
	if _, err := sim.Run(m, sim.RunOptions{Controller: ctrl, Spoof: &plan, Flight: log.Recorder("witness")}); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := flightlog.ReadFlight(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// docMarkers walks the document with a strict XML decoder — proving it
// is well-formed — and collects every id and class attribute value.
func docMarkers(t *testing.T, doc []byte) (ids, classes map[string]int) {
	t.Helper()
	ids, classes = map[string]int{}, map[string]int{}
	dec := xml.NewDecoder(bytes.NewReader(doc))
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return ids, classes
		}
		if err != nil {
			t.Fatalf("post-mortem is not well-formed XML: %v", err)
		}
		se, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		for _, a := range se.Attr {
			switch a.Name.Local {
			case "id":
				ids[a.Value]++
			case "class":
				for _, c := range strings.Fields(a.Value) {
					classes[c]++
				}
			}
		}
	}
}

func TestGenerateWellFormed(t *testing.T) {
	f := recordedFlight(t)
	var buf bytes.Buffer
	if err := Generate(f, &buf); err != nil {
		t.Fatal(err)
	}
	doc := buf.Bytes()
	if !bytes.HasPrefix(doc, []byte("<!DOCTYPE html>")) {
		t.Error("missing DOCTYPE")
	}
	if !bytes.Contains(doc, []byte(`<meta charset="utf-8"/>`)) {
		t.Error("missing charset declaration")
	}
	ids, classes := docMarkers(t, doc)
	for _, id := range []string{"replay", "separation", "terms"} {
		if ids[id] != 1 {
			t.Errorf("id %q appears %d times, want exactly 1", id, ids[id])
		}
	}
	for _, cl := range []string{"attack-window", "drone", "gps-ghost", "series"} {
		if classes[cl] == 0 {
			t.Errorf("no element with class %q", cl)
		}
	}
	if !bytes.Contains(doc, []byte("<animate ")) {
		t.Error("replay has no SMIL animation")
	}
}

func TestGenerateRejectsEmptyFlights(t *testing.T) {
	if err := Generate(&flightlog.Flight{}, io.Discard); err == nil {
		t.Error("accepted a flight with no mission header")
	}
	f := &flightlog.Flight{Mission: &flightlog.MissionRecord{NumDrones: 3}}
	if err := Generate(f, io.Discard); err == nil {
		t.Error("accepted a flight with no runs")
	}
}

// TestSpoofedDeliveryPostmortem reproduces examples/spoofed_delivery
// end to end: SwarmFuzz cracks the delivery mission (5 drones, d=10m;
// seed 2 is the first vulnerable one), the flight log captures the
// clean run, forensics, and witness run, and the post-mortem renders
// with the attack window annotated.
func TestSpoofedDeliveryPostmortem(t *testing.T) {
	ctrl := testController(t)
	mission, err := sim.NewMission(sim.DefaultMissionConfig(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	log, flightPath, err := flightlog.Create(t.TempDir(), "spoofed_delivery", ctrl)
	if err != nil {
		t.Fatal(err)
	}
	opts := fuzz.DefaultOptions()
	opts.Flight = log
	rep, err := fuzz.SwarmFuzz{}.Fuzz(fuzz.Input{
		Mission:       mission,
		Controller:    ctrl,
		SpoofDistance: 10,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Found {
		t.Fatal("seed 2 no longer vulnerable; pick a new seed for this test")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	htmlPath := filepath.Join(filepath.Dir(flightPath), "spoofed_delivery.postmortem.html")
	if err := GenerateFile(flightPath, htmlPath); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	ids, classes := docMarkers(t, doc)
	for _, id := range []string{"replay", "separation", "terms", "search"} {
		if ids[id] != 1 {
			t.Errorf("id %q appears %d times, want exactly 1", id, ids[id])
		}
	}
	if classes["attack-window"] == 0 {
		t.Error("attack window not annotated on any chart")
	}
	if classes["gps-ghost"] == 0 {
		t.Error("spoofed GPS ghost missing from the replay")
	}

	// The witness run must be present and spoofed with the finding's
	// exact parameters, so the replay shows the attack that cracked it.
	f, err := flightlog.ReadFlightFile(flightPath)
	if err != nil {
		t.Fatal(err)
	}
	w := f.Run("witness")
	if w == nil || w.Spoof == nil {
		t.Fatal("flight log has no spoofed witness run")
	}
	find := rep.Findings[0]
	if w.Spoof.Target != find.Plan.Target || w.Spoof.Direction != int(find.Plan.Direction) {
		t.Errorf("witness spoof %+v does not match finding %+v", w.Spoof, find.Plan)
	}
	if len(f.Search) == 0 {
		t.Error("no search iterates recorded")
	}
	if len(f.SVGs) == 0 {
		t.Error("no SVG recorded")
	}
}

func TestGenerateFileMissingInput(t *testing.T) {
	err := GenerateFile(filepath.Join(t.TempDir(), "absent.flight.jsonl"), filepath.Join(t.TempDir(), "out.html"))
	if err == nil {
		t.Error("GenerateFile succeeded on a missing flight log")
	}
}
