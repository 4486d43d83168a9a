package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swarmfuzz/internal/atlas"
	"swarmfuzz/internal/fuzz"
)

var updateAtlas = flag.Bool("update-atlas", false, "rewrite the golden atlas artifact")

// atlasConfig is a tiny two-cell grid with enough search depth to
// produce real convergence trails.
func atlasConfig() Config {
	cfg := fastConfig(2)
	cfg.SpoofDistances = []float64{5, 10}
	cfg.Fuzz.MaxIterPerSeed = 4
	cfg.Fuzz.MaxSeeds = 2
	return cfg
}

func runAtlasGrid(t *testing.T, cfg Config) ([]byte, []*CampaignResult) {
	t.Helper()
	cfg.AtlasPath = filepath.Join(t.TempDir(), "atlas.jsonl")
	cells, err := Grid(context.Background(), cfg, fuzz.SwarmFuzz{})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.AtlasPath)
	if err != nil {
		t.Fatal(err)
	}
	return raw, cells
}

// TestGridAtlasGolden pins the artifact byte-for-byte: a fixed-seed
// grid must produce an identical atlas across runs and releases.
// Regenerate with `go test ./internal/experiments -update-atlas` after
// an intentional schema change.
func TestGridAtlasGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	raw, cells := runAtlasGrid(t, atlasConfig())
	again, _ := runAtlasGrid(t, atlasConfig())
	if !bytes.Equal(raw, again) {
		t.Fatal("two fixed-seed atlas runs differ")
	}

	doc, err := atlas.ReadAtlas(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Header.Fuzzer != "SwarmFuzz" || doc.Header.Version != atlas.Version {
		t.Errorf("header = %+v", doc.Header)
	}
	if len(doc.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(doc.Cells))
	}
	for i, cell := range doc.Cells {
		if len(cell.Missions) != 2 {
			t.Errorf("cell %d has %d mission streams, want 2", i, len(cell.Missions))
		}
		if cell.End == nil {
			t.Fatalf("cell %d missing cell_end", i)
		}
		if cell.End.Missions != 2 {
			t.Errorf("cell %d aggregates %d missions, want 2", i, cell.End.Missions)
		}
	}
	if doc.End == nil || doc.End.Cells != 2 || doc.End.Missions != 4 {
		t.Errorf("atlas_end = %+v", doc.End)
	}
	// Outcomes must carry the collector summaries the aggregates are
	// rebuilt from on resume.
	for _, cell := range cells {
		for i, o := range cell.Outcomes {
			if o.Err == "" && o.Search == nil {
				t.Errorf("cell n=%d d=%g mission %d has no search summary", cell.SwarmSize, cell.SpoofDistance, i)
			}
		}
	}

	golden := filepath.Join("testdata", "atlas_grid_golden.jsonl")
	if *updateAtlas {
		if err := os.WriteFile(golden, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-atlas to regenerate)", err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatalf("atlas artifact deviates from golden (%d vs %d bytes); run with -update-atlas if the schema change is intentional",
			len(raw), len(want))
	}
}

// TestGridAtlasCheckpointResume pins the resume contract: an
// interrupted, checkpoint-resumed grid must write the exact artifact an
// uninterrupted run would, its cell_end statistics included.
func TestGridAtlasCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	ctx := context.Background()
	ref, _ := runAtlasGrid(t, atlasConfig())

	dir := t.TempDir()
	cfg := atlasConfig()
	cfg.Checkpoint = dir
	cfg.AtlasPath = filepath.Join(dir, "atlas_full.jsonl")
	if _, err := Grid(ctx, cfg, fuzz.SwarmFuzz{}); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(cfg.AtlasPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, full) {
		t.Fatal("checkpointed atlas differs from plain atlas")
	}
	// Simulate a kill between cells: drop the second cell's checkpoint
	// and fragment, then resume into a fresh artifact path. Cell one
	// replays recorded bytes, cell two re-fuzzes, and the artifact must
	// match the uninterrupted run byte-for-byte.
	if err := os.Remove(filepath.Join(dir, checkpointFile(3, 10))); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, atlasFragmentFile(3, 10))); err != nil {
		t.Fatal(err)
	}
	cfg.AtlasPath = filepath.Join(dir, "atlas_resumed.jsonl")
	if _, err := Grid(ctx, cfg, fuzz.SwarmFuzz{}); err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(cfg.AtlasPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, resumed) {
		t.Fatal("resumed atlas differs from uninterrupted atlas")
	}
}

// TestGridAtlasFragmentMissing directs the user to a fresh checkpoint
// dir when a pre-atlas checkpoint lacks its fragment, instead of
// writing a silently incomplete artifact.
func TestGridAtlasFragmentMissing(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	ctx := context.Background()
	dir := t.TempDir()
	cfg := atlasConfig()
	cfg.SpoofDistances = []float64{10} // one cell
	cfg.Checkpoint = dir
	if _, err := Grid(ctx, cfg, fuzz.SwarmFuzz{}); err != nil {
		t.Fatal(err) // checkpoint written without atlas enabled
	}
	cfg.AtlasPath = filepath.Join(t.TempDir(), "atlas.jsonl")
	_, err := Grid(ctx, cfg, fuzz.SwarmFuzz{})
	if err == nil {
		t.Fatal("want error for checkpoint without atlas fragment")
	}
	if !strings.Contains(err.Error(), "atlas fragment") || !strings.Contains(err.Error(), "fresh checkpoint dir") {
		t.Errorf("undirected error: %v", err)
	}
}
