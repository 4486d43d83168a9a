package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"swarmfuzz/internal/fuzz"
)

// RunCell must hand back exactly the bytes SaveCheckpoint would
// persist for the same cell — that equivalence is what lets a
// coordinator import a remote cell verbatim.
func TestRunCellMatchesCheckpointBytes(t *testing.T) {
	cfg := fastConfig(2)
	cd, err := RunCell(context.Background(), cfg, fuzz.RFuzz{}, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cd.SwarmSize != 3 || cd.SpoofDistance != 10 {
		t.Fatalf("cell identity = n%d d%g", cd.SwarmSize, cd.SpoofDistance)
	}
	if cd.Atlas != nil {
		t.Fatal("atlas fragment present without AtlasPath")
	}

	cell, err := RunCampaign(context.Background(), cfg, fuzz.RFuzz{}, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := SaveCheckpoint(dir, cell); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, checkpointFile(3, 10)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cd.Cell, want) {
		t.Fatal("RunCell bytes differ from SaveCheckpoint bytes")
	}
}

// A grid resumed over imported cells must render the same artifacts as
// a direct single-process run: same cells, same atlas, byte for byte.
func TestImportCellDataGridByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	ctx := context.Background()
	cfg := atlasConfig()
	refAtlas, refCells := runAtlasGrid(t, cfg)

	// "Remote" side: compute every cell through RunCell with atlas
	// collection on (any non-empty AtlasPath enables it; nothing is
	// written).
	workCfg := cfg
	workCfg.AtlasPath = "fabric"
	var imported []*CellData
	for _, d := range cfg.SpoofDistances {
		for _, n := range cfg.SwarmSizes {
			cd, err := RunCell(ctx, workCfg, fuzz.SwarmFuzz{}, n, d)
			if err != nil {
				t.Fatal(err)
			}
			if cd.Atlas == nil {
				t.Fatalf("cell n%d d%g: no atlas fragment", n, d)
			}
			imported = append(imported, cd)
		}
	}

	// "Coordinator" side: import them all, then run the grid over the
	// checkpoint directory — every cell resumes.
	dir := t.TempDir()
	for _, cd := range imported {
		if err := ImportCellData(dir, cd); err != nil {
			t.Fatal(err)
		}
		if !HasCheckpoint(dir, cd.SwarmSize, cd.SpoofDistance) {
			t.Fatalf("cell n%d d%g: no checkpoint after import", cd.SwarmSize, cd.SpoofDistance)
		}
	}
	mergeCfg := cfg
	mergeCfg.Checkpoint = dir
	mergeCfg.AtlasPath = filepath.Join(dir, "atlas_merged.jsonl")
	cells, err := Grid(ctx, mergeCfg, fuzz.SwarmFuzz{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(refCells) {
		t.Fatalf("got %d cells, want %d", len(cells), len(refCells))
	}
	for i := range cells {
		got, err := EncodeCell(cells[i])
		if err != nil {
			t.Fatal(err)
		}
		want, err := EncodeCell(refCells[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cell %d differs from direct run", i)
		}
	}
	merged, err := os.ReadFile(mergeCfg.AtlasPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(merged, refAtlas) {
		t.Fatal("merged atlas differs from direct run")
	}
}

// ImportCellData validates payloads before touching the directory.
func TestImportCellDataRejectsBadPayloads(t *testing.T) {
	dir := t.TempDir()
	if err := ImportCellData(dir, &CellData{SwarmSize: 3, SpoofDistance: 10, Cell: []byte("{not json")}); err == nil {
		t.Fatal("undecodable cell accepted")
	}
	cell := &CampaignResult{SwarmSize: 5, SpoofDistance: 10, Outcomes: []MissionOutcome{{VDO: 1}}}
	data, err := EncodeCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if err := ImportCellData(dir, &CellData{SwarmSize: 3, SpoofDistance: 10, Cell: data}); err == nil {
		t.Fatal("mislabelled cell accepted")
	}
	if err := ImportCellData(dir, &CellData{SwarmSize: 5, SpoofDistance: 10, Cell: data}); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadCheckpoint(dir, 5, 10); err != nil || got == nil || got.SwarmSize != 5 {
		t.Fatalf("round-trip failed: %v %v", got, err)
	}
}

// FuzzCheckpoint feeds arbitrary bytes to LoadCheckpoint (as the n=3
// d=10 cell's file) and to ImportCellData (as that cell's payload). No
// input may panic; a rejected import writes no file; an accepted cell
// re-encodes to a checkpoint that loads back to the same cell; and
// every strict prefix of that checkpoint — a torn write — is rejected
// by both functions.
func FuzzCheckpoint(f *testing.F) {
	cfg := fastConfig(2)
	cfg.AtlasPath = "fuzz" // collect the Search summaries; RunCell writes nothing
	cd, err := RunCell(context.Background(), cfg, fuzz.SwarmFuzz{}, 3, 10)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(cd.Cell), len(cd.Cell) - 1, len(cd.Cell) / 2, 1, 0} {
		f.Add(cd.Cell[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		cell := loadAndImport(t, dir, data)
		if cell == nil {
			return
		}
		valid, err := EncodeCell(cell)
		if err != nil {
			t.Fatal(err)
		}
		again := loadAndImport(t, dir, valid)
		if again == nil {
			t.Fatalf("re-encoded checkpoint rejected:\n%s", valid)
		}
		// Compared in the checkpoint encoding: omitempty folds empty
		// and absent fields, which DeepEqual would tell apart.
		if re, err := EncodeCell(again); err != nil || !bytes.Equal(re, valid) {
			t.Fatalf("re-encoded cell loads back as a different cell (%v):\n%s\nwant:\n%s", err, re, valid)
		}
		for n := range valid {
			if loadAndImport(t, dir, valid[:n]) != nil {
				t.Fatalf("the %d-byte prefix of a %d-byte checkpoint was accepted", n, len(valid))
			}
		}
	})
}

// loadAndImport writes data as the n=3 d=10 checkpoint under dir/load
// and loads it, then imports data as that cell's payload into
// dir/import, which it leaves empty. It returns the loaded cell, nil
// when LoadCheckpoint rejects. A rejected import must write no file,
// and only loadable data may import.
func loadAndImport(t *testing.T, dir string, data []byte) *CampaignResult {
	t.Helper()
	load, imp := filepath.Join(dir, "load"), filepath.Join(dir, "import")
	if err := os.MkdirAll(load, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(load, checkpointFile(3, 10)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	cell, loadErr := LoadCheckpoint(load, 3, 10)
	importErr := ImportCellData(imp, &CellData{SwarmSize: 3, SpoofDistance: 10, Cell: data, Atlas: []byte("{}\n")})
	if importErr == nil {
		if loadErr != nil {
			t.Fatalf("ImportCellData accepted a checkpoint LoadCheckpoint rejects: %v", loadErr)
		}
		if err := os.RemoveAll(imp); err != nil {
			t.Fatal(err)
		}
	} else if left, err := os.ReadDir(imp); !os.IsNotExist(err) {
		t.Fatalf("rejected import (%v) left %v behind (%v)", importErr, left, err)
	}
	if loadErr != nil {
		return nil
	}
	return cell
}
