package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Checkpoint files: one JSON document per grid cell, named after the
// cell's configuration. Cells are only ever written whole (temp file +
// atomic rename), so a file that exists is a finished cell — a run
// killed mid-cell leaves no trace of it and the cell re-runs on
// resume. Campaigns are deterministic, so a resumed grid renders
// byte-identical tables to an uninterrupted one.

// checkpointFile returns the cell's file name within a checkpoint
// directory.
func checkpointFile(swarmSize int, spoofDistance float64) string {
	return fmt.Sprintf("cell_n%d_d%g.json", swarmSize, spoofDistance)
}

// EncodeCell renders a cell in the checkpoint encoding — the exact
// bytes a checkpoint file holds. The fabric ships cells between
// machines in this encoding so an imported cell is indistinguishable
// from a locally checkpointed one.
func EncodeCell(cell *CampaignResult) ([]byte, error) {
	data, err := json.MarshalIndent(cell, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiments: encode checkpoint: %w", err)
	}
	return data, nil
}

// writeFileAtomic persists data as dir/name via a temp file in dir and
// an atomic rename, creating dir as needed. what labels errors
// ("checkpoint", "atlas fragment", ...).
func writeFileAtomic(dir, name string, data []byte, what string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: %s dir: %w", what, err)
	}
	tmp, err := os.CreateTemp(dir, "cell_*.tmp")
	if err != nil {
		return fmt.Errorf("experiments: %s temp file: %w", what, err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("experiments: write %s: %w", what, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("experiments: write %s: %w", what, err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("experiments: commit %s: %w", what, err)
	}
	return nil
}

// commitCell persists a finished cell into dir: its atlas fragment
// (when non-nil) first, then its checkpoint, each atomically. A
// checkpoint that exists therefore implies its fragment exists, which
// resume relies on. Grid's save path and ImportCellData both commit
// through here.
func commitCell(dir string, swarmSize int, spoofDistance float64, checkpoint, fragment []byte) error {
	if fragment != nil {
		if err := writeFileAtomic(dir, atlasFragmentFile(swarmSize, spoofDistance), fragment, "atlas fragment"); err != nil {
			return err
		}
	}
	return writeFileAtomic(dir, checkpointFile(swarmSize, spoofDistance), checkpoint, "checkpoint")
}

// HasCheckpoint reports whether dir already holds the cell's
// checkpoint file. Fabric coordinators use it to enumerate the cells a
// resumed grid job still owes.
func HasCheckpoint(dir string, swarmSize int, spoofDistance float64) bool {
	_, err := os.Stat(filepath.Join(dir, checkpointFile(swarmSize, spoofDistance)))
	return err == nil
}

// LoadCheckpoint returns the persisted cell for the given
// configuration, or nil when dir holds none. A file that exists but
// does not decode is an error: checkpoints are written atomically, so
// corruption means something outside this engine touched the file.
func LoadCheckpoint(dir string, swarmSize int, spoofDistance float64) (*CampaignResult, error) {
	path := filepath.Join(dir, checkpointFile(swarmSize, spoofDistance))
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: read checkpoint: %w", err)
	}
	cell, err := decodeCell(data, swarmSize, spoofDistance)
	if err != nil {
		return nil, fmt.Errorf("experiments: checkpoint %s: %w", path, err)
	}
	return cell, nil
}

// decodeCell decodes a cell from the checkpoint encoding and checks
// that it is the (swarmSize, spoofDistance) cell. LoadCheckpoint and
// ImportCellData both decode through here.
func decodeCell(data []byte, swarmSize int, spoofDistance float64) (*CampaignResult, error) {
	var cell CampaignResult
	if err := json.Unmarshal(data, &cell); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if cell.SwarmSize != swarmSize || cell.SpoofDistance != spoofDistance {
		return nil, fmt.Errorf("holds n=%d d=%g, want n=%d d=%g",
			cell.SwarmSize, cell.SpoofDistance, swarmSize, spoofDistance)
	}
	return &cell, nil
}
