package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"swarmfuzz/internal/fuzz"
)

// RunCell must hand back exactly the bytes Grid persists for the same
// cell — that equivalence is what lets a coordinator import a remote
// cell verbatim.
func TestRunCellMatchesCheckpointBytes(t *testing.T) {
	cfg := fastConfig(2)
	checkpoint, atlas, err := RunCell(context.Background(), cfg, fuzz.RFuzz{}, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCell(checkpoint, 3, 10); err != nil {
		t.Fatalf("cell identity: %v", err)
	}
	if atlas != nil {
		t.Fatal("atlas fragment present without AtlasPath")
	}

	gridCfg := cfg
	gridCfg.Checkpoint = t.TempDir()
	if _, err := Grid(context.Background(), gridCfg, fuzz.RFuzz{}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(gridCfg.Checkpoint, checkpointFile(3, 10)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(checkpoint, want) {
		t.Fatal("RunCell bytes differ from the checkpoint Grid saved")
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
	type remoteCell struct {
		n                 int
		d                 float64
		checkpoint, atlas []byte
	}
	var imported []remoteCell
	for _, d := range cfg.SpoofDistances {
		for _, n := range cfg.SwarmSizes {
			checkpoint, atlas, err := RunCell(ctx, workCfg, fuzz.SwarmFuzz{}, n, d)
			if err != nil {
				t.Fatal(err)
			}
			if atlas == nil {
				t.Fatalf("cell n%d d%g: no atlas fragment", n, d)
			}
			imported = append(imported, remoteCell{n, d, checkpoint, atlas})
		}
	}

	// "Coordinator" side: import them all, then run the grid over the
	// checkpoint directory — every cell resumes.
	dir := t.TempDir()
	for _, rc := range imported {
		if err := ImportCellData(dir, rc.n, rc.d, rc.checkpoint, rc.atlas); err != nil {
			t.Fatal(err)
		}
		if !HasCheckpoint(dir, rc.n, rc.d) {
			t.Fatalf("cell n%d d%g: no checkpoint after import", rc.n, rc.d)
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
	if err := ImportCellData(dir, 3, 10, []byte("{not json"), nil); err == nil {
		t.Fatal("undecodable cell accepted")
	}
	cell := &CampaignResult{SwarmSize: 5, SpoofDistance: 10, Outcomes: []MissionOutcome{{VDO: 1}}}
	data, err := EncodeCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if err := ImportCellData(dir, 3, 10, data, nil); err == nil {
		t.Fatal("mislabelled cell accepted")
	}
	if err := ImportCellData(dir, 5, 10, data, nil); err != nil {
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
	checkpoint, _, err := RunCell(context.Background(), cfg, fuzz.SwarmFuzz{}, 3, 10)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(checkpoint), len(checkpoint) - 1, len(checkpoint) / 2, 1, 0} {
		f.Add(checkpoint[:n])
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
	importErr := ImportCellData(imp, 3, 10, data, []byte("{}\n"))
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
