package sim_test

import (
	"errors"
	"testing"

	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/svg"
)

// TestTrajectoryClosestSampleEmpty pins that a Trajectory with no
// samples has no closest sample: the simulator records state only, and
// both t_clo searches in svg refuse an empty recording rather than
// pick a sample from it.
func TestTrajectoryClosestSampleEmpty(t *testing.T) {
	m, err := sim.NewMission(sim.DefaultMissionConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	empty := &sim.Trajectory{}
	if _, err := svg.ClosestSnapshot(empty); !errors.Is(err, svg.ErrNoTrajectory) {
		t.Errorf("ClosestSnapshot(empty) err = %v, want ErrNoTrajectory", err)
	}
	if _, err := svg.ClosestSnapshotNearObstacle(empty, m, 40); !errors.Is(err, svg.ErrNoTrajectory) {
		t.Errorf("ClosestSnapshotNearObstacle(empty) err = %v, want ErrNoTrajectory", err)
	}
}
