package experiments

// Cell-level entry points for the distributed campaign fabric. A grid
// job's unit of work has always been the per-cell checkpoint file:
// RunCell computes one cell and hands back exactly the bytes Grid
// would persist for it (plus the cell's atlas fragment when collection
// is on), and ImportCellData commits a remotely computed cell into a
// checkpoint directory exactly as a local Grid run would have. A
// subsequent Grid over that directory resumes every imported cell,
// and resumed grids are pinned byte-identical to uninterrupted ones —
// which is what makes a fabric-sharded run's tables, report and atlas
// artifact byte-identical to a single-node run.

import (
	"context"
	"errors"
	"fmt"

	"swarmfuzz/internal/fuzz"
)

// RunCell computes one (swarmSize, spoofDistance) grid cell and
// returns its checkpoint encoding and its atlas fragment (nil when
// collection is off). Atlas collection follows cfg.AtlasPath the same
// way RunCampaign does — any non-empty value enables it — but RunCell
// never writes the path: the fragment is returned instead.
func RunCell(ctx context.Context, cfg Config, fuzzer fuzz.Fuzzer, swarmSize int, spoofDistance float64) (checkpoint, atlas []byte, err error) {
	cell, err := RunCampaign(ctx, cfg, fuzzer, swarmSize, spoofDistance)
	if err != nil {
		return nil, nil, err
	}
	checkpoint, err = EncodeCell(cell)
	if err != nil {
		return nil, nil, err
	}
	return checkpoint, cell.atlasFragment, nil
}

// ImportCellData commits a remotely computed cell into a checkpoint
// directory exactly as Grid would have. The payload must decode as the
// named cell and hold at least one mission outcome; nothing is written
// otherwise. The checkpoint bytes land verbatim, so the byte-identity
// contract holds end to end.
func ImportCellData(dir string, swarmSize int, spoofDistance float64, checkpoint, atlas []byte) error {
	cell, err := decodeCell(checkpoint, swarmSize, spoofDistance)
	if err == nil && len(cell.Outcomes) == 0 {
		err = errors.New("payload has no mission outcomes")
	}
	if err != nil {
		return fmt.Errorf("experiments: import cell n=%d d=%g: %w", swarmSize, spoofDistance, err)
	}
	return commitCell(dir, swarmSize, spoofDistance, checkpoint, atlas)
}
