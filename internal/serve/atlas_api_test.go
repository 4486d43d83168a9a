package serve_test

import (
	"bytes"
	"context"
	"encoding/xml"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swarmfuzz/internal/atlas"
	"swarmfuzz/internal/experiments"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/serve"
	"swarmfuzz/internal/serve/client"
)

// TestAtlasEndpointGridByteIdentity drives a real grid job through the
// daemon with atlas recording on and requires the served artifact to be
// byte-identical to the same spec run directly through experiments.Grid
// — the property that makes the HTTP atlas as trustworthy as the CLI's.
func TestAtlasEndpointGridByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	c, _ := newTestDaemon(t, nil)
	ctx := context.Background()

	spec := serve.JobSpec{
		Kind: serve.KindGrid, Fuzzer: "swarmfuzz",
		SwarmSizes: []int{3}, SpoofDistances: []float64{10}, Missions: 1,
		MaxIterPerSeed: 2, MaxSeeds: 1, Workers: 1,
		Atlas: true,
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil || final.State != serve.StateDone {
		t.Fatalf("Wait = %+v, %v; want done", final, err)
	}
	got, err := c.Atlas(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("served atlas is empty")
	}

	refSpec := spec
	refSpec.Normalize()
	cfg := refSpec.CampaignConfig()
	cfg.AtlasPath = filepath.Join(t.TempDir(), "atlas.jsonl")
	if _, err := experiments.Grid(ctx, cfg, fuzz.SwarmFuzz{}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(cfg.AtlasPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("served atlas differs from the direct same-seed run (%d vs %d bytes):\n got %s\nwant %s",
			len(got), len(want), got, want)
	}

	// The artifact parses and carries the grid's one populated cell.
	doc, err := atlas.ReadAtlas(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Cells) != 1 || doc.Cells[0].End == nil || doc.Cells[0].End.Missions != 1 {
		t.Errorf("cells = %+v", doc.Cells)
	}

	// ?format=html renders a well-formed XHTML page from the same bytes.
	resp, err := http.Get(c.Base + "/v1/jobs/" + st.ID + "/atlas?format=html")
	if err != nil {
		t.Fatal(err)
	}
	page, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("atlas html status = %d: %s", resp.StatusCode, page)
	}
	if !bytes.HasPrefix(page, []byte("<!DOCTYPE html>")) {
		t.Error("atlas page missing DOCTYPE")
	}
	dec := xml.NewDecoder(bytes.NewReader(page))
	for {
		_, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("atlas page is not well-formed XML: %v", err)
		}
	}
	if !bytes.Contains(page, []byte("Crack-rate heatmap")) {
		t.Error("atlas page missing the heatmap section")
	}
}

// TestAtlasEndpointFuzzJob requires a fuzz job's served artifact to be
// byte-identical to experiments.RunMission's for the same spec, the
// runner cmd/swarmfuzz writes its -atlas file from, and checks the
// single-mission framing.
func TestAtlasEndpointFuzzJob(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz-job test in -short mode")
	}
	c, _ := newTestDaemon(t, nil)
	ctx := context.Background()

	spec := serve.JobSpec{
		Kind: serve.KindFuzz, Fuzzer: "swarmfuzz",
		SwarmSize: 3, SpoofDistance: 10, Seed: 1,
		MaxIterPerSeed: 2, MaxSeeds: 1,
		Atlas: true,
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Wait(ctx, st.ID); err != nil || final.State != serve.StateDone {
		t.Fatalf("Wait = %+v, %v; want done", final, err)
	}
	raw, err := c.Atlas(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	refSpec := spec
	refSpec.Normalize()
	ref, err := experiments.RunMission(ctx, refSpec.MissionSpec(), fuzz.SwarmFuzz{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, ref.Atlas) {
		t.Errorf("served atlas differs from the direct same-spec run (%d vs %d bytes):\n got %s\nwant %s",
			len(raw), len(ref.Atlas), raw, ref.Atlas)
	}
	doc, err := atlas.ReadAtlas(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Header.Fuzzer != "SwarmFuzz" {
		t.Errorf("header fuzzer = %q", doc.Header.Fuzzer)
	}
	if len(doc.Missions) != 1 || len(doc.Missions[0].Seeds) == 0 {
		t.Fatalf("missions = %+v, want one mission with seed records", doc.Missions)
	}
	if doc.End == nil || doc.End.Cells != 0 || doc.End.Missions != 1 {
		t.Errorf("atlas_end = %+v", doc.End)
	}
}

// TestAtlasErrorMapping pins the endpoint's failure statuses.
func TestAtlasErrorMapping(t *testing.T) {
	c, _ := newTestDaemon(t, map[string]fuzz.Fuzzer{"stub": &okFuzzer{}})
	ctx := context.Background()

	if _, err := c.Atlas(ctx, "j999999"); client.StatusCode(err) != http.StatusNotFound {
		t.Errorf("Atlas(unknown) status = %d, want 404", client.StatusCode(err))
	}

	// A job submitted without atlas recording conflicts, with a message
	// pointing at the missing spec flag.
	spec := serve.JobSpec{
		Kind: serve.KindCampaign, Fuzzer: "stub",
		SwarmSize: 3, SpoofDistance: 10, Missions: 1,
		MaxIterPerSeed: 2, MaxSeeds: 1,
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if final, err := c.Wait(ctx, st.ID); err != nil || final.State != serve.StateDone {
		t.Fatalf("Wait = %+v, %v; want done", final, err)
	}
	_, err = c.Atlas(ctx, st.ID)
	if client.StatusCode(err) != http.StatusConflict {
		t.Errorf("Atlas(no recording) status = %d (%v), want 409", client.StatusCode(err), err)
	}
	if err == nil || !strings.Contains(err.Error(), "without atlas recording") {
		t.Errorf("undirected error: %v", err)
	}
}
