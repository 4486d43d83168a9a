package experiments

// Search-atlas persistence for campaign grids. Each mission's collector
// output is buffered in memory, folded into a per-cell JSONL fragment
// (cell record + mission streams in job order + cell_end aggregates),
// and the grid finale concatenates fragments under a header into the
// artifact at Config.AtlasPath. With checkpointing enabled the fragment
// is persisted next to the cell checkpoint — written atomically and
// strictly BEFORE the checkpoint, so a checkpoint that exists implies
// its fragment exists — and a resumed cell re-uses the fragment bytes
// verbatim, keeping the artifact byte-identical to an uninterrupted
// run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"swarmfuzz/internal/atlas"
)

// atlasFragmentFile names a cell's atlas fragment within a checkpoint
// directory, alongside checkpointFile's cell JSON.
func atlasFragmentFile(swarmSize int, spoofDistance float64) string {
	return fmt.Sprintf("cell_n%d_d%g.atlas.jsonl", swarmSize, spoofDistance)
}

// atlasAggregateFile is the campaign-level aggregate document written
// next to the checkpoints.
const atlasAggregateFile = "atlas.json"

// searchSummaries extracts the per-mission search summaries of a cell
// (nil entries for missions without one, e.g. degraded missions).
func searchSummaries(outcomes []MissionOutcome) []*atlas.MissionSearch {
	sums := make([]*atlas.MissionSearch, len(outcomes))
	for i := range outcomes {
		sums[i] = outcomes[i].Search
	}
	return sums
}

// buildCellFragment folds one completed cell's mission streams into
// its atlas fragment.
func buildCellFragment(swarmSize int, spoofDistance float64, missionStreams [][]byte, outcomes []MissionOutcome) ([]byte, error) {
	var frag bytes.Buffer
	if err := atlas.WriteCell(&frag, swarmSize, spoofDistance); err != nil {
		return nil, err
	}
	for _, stream := range missionStreams {
		frag.Write(stream)
	}
	stats := atlas.AggregateCell(swarmSize, spoofDistance, searchSummaries(outcomes))
	if err := atlas.WriteCellEnd(&frag, stats); err != nil {
		return nil, err
	}
	return frag.Bytes(), nil
}

// readCellFragment loads a resumed cell's persisted fragment. The
// fragment is written before its checkpoint, so a checkpoint hit with
// no fragment means the checkpoint predates atlas recording — the
// caller gets a directed error rather than a silently incomplete
// artifact.
func readCellFragment(dir string, swarmSize int, spoofDistance float64) ([]byte, error) {
	path := filepath.Join(dir, atlasFragmentFile(swarmSize, spoofDistance))
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("experiments: checkpointed cell n=%d d=%g has no atlas fragment (%s); use a fresh checkpoint dir when enabling the atlas",
			swarmSize, spoofDistance, path)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: read atlas fragment: %w", err)
	}
	return data, nil
}

// writeAtlasArtifact assembles the final artifact: header, each cell's
// fragment in grid order, and the closing record.
func writeAtlasArtifact(path, fuzzer string, cells []*CampaignResult) error {
	var buf bytes.Buffer
	if err := atlas.WriteHeader(&buf, fuzzer); err != nil {
		return err
	}
	missions := 0
	for _, cell := range cells {
		buf.Write(cell.atlasFragment)
		missions += len(cell.Outcomes)
	}
	if err := atlas.WriteAtlasEnd(&buf, len(cells), missions); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("experiments: write atlas artifact: %w", err)
	}
	return nil
}

// writeAtlasAggregate persists the campaign-level Atlas document next
// to the checkpoints. It is rebuilt from the checkpointed per-mission
// summaries, so resumed cells aggregate exactly like fresh ones.
func writeAtlasAggregate(dir, fuzzer string, cells []*CampaignResult) error {
	a := atlas.Atlas{Fuzzer: fuzzer, Cells: make([]atlas.CellStats, 0, len(cells))}
	for _, cell := range cells {
		a.Cells = append(a.Cells, atlas.AggregateCell(cell.SwarmSize, cell.SpoofDistance, searchSummaries(cell.Outcomes)))
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: encode atlas aggregate: %w", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(filepath.Join(dir, atlasAggregateFile), data, 0o644); err != nil {
		return fmt.Errorf("experiments: write atlas aggregate: %w", err)
	}
	return nil
}
