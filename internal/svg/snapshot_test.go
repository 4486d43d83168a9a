package svg

import (
	"math"
	"testing"

	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

// twoDroneTrajectory builds a trajectory marching two drones north past
// an obstacle at y=50, 10 m per sample, with the minimum inter-distance
// placed at a chosen sample.
func twoDroneTrajectory(minAt int, samples int) *sim.Trajectory {
	traj := &sim.Trajectory{}
	for s := 0; s < samples; s++ {
		gap := 8.0
		if s == minAt {
			gap = 4.0
		}
		traj.Times = append(traj.Times, float64(s))
		traj.Positions = append(traj.Positions, abreast(float64(s)*10, gap))
		traj.Velocities = append(traj.Velocities, []vec.Vec3{
			vec.New(0, 2, 0), vec.New(0, 2, 0),
		})
	}
	return traj
}

// abreast places two drones side by side at along-track position y,
// gap metres apart: their mean inter-drone distance is exactly gap.
func abreast(y, gap float64) []vec.Vec3 {
	return []vec.Vec3{vec.New(-gap/2, y, 10), vec.New(gap/2, y, 10)}
}

func obstacleMission(t *testing.T) *sim.Mission {
	t.Helper()
	cfg := sim.DefaultMissionConfig(2, 1)
	m, err := sim.NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the obstacle at y=50 on the migration axis for the synthetic
	// trajectories above.
	m.World.Obstacles[0] = sim.Obstacle{Center: vec.New(0, 50, 0), Radius: 4}
	return m
}

func TestClosestSnapshotNearObstacleRestricts(t *testing.T) {
	m := obstacleMission(t)
	// Global minimum inter-distance at sample 9 (y=90, far past the
	// obstacle); near the obstacle (y=50, sample 5) the gap is larger.
	traj := twoDroneTrajectory(9, 10)
	traj.Positions[5] = abreast(50, 6) // local minimum within the window

	global, err := ClosestSnapshot(traj)
	if err != nil {
		t.Fatal(err)
	}
	if global.Time != 9 {
		t.Fatalf("global t_clo = %v, want 9", global.Time)
	}

	near, err := ClosestSnapshotNearObstacle(traj, m, 25)
	if err != nil {
		t.Fatal(err)
	}
	// Window ±25m around y=50 covers samples y∈[25,75] → s∈{3..7};
	// the minimum mean inter-distance there is at s=5.
	if near.Time != 5 {
		t.Errorf("restricted t_clo = %v, want 5", near.Time)
	}
}

func TestClosestSnapshotNearObstacleFallsBack(t *testing.T) {
	m := obstacleMission(t)
	// Move the obstacle far away laterally so no sample is within the
	// window: must fall back to the global t_clo.
	m.World.Obstacles[0].Center = vec.New(1000, 50, 0)
	traj := twoDroneTrajectory(3, 6)
	snap, err := ClosestSnapshotNearObstacle(traj, m, 25)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Time != 3 {
		t.Errorf("fallback t_clo = %v, want global 3", snap.Time)
	}
}

func TestClosestSnapshotNearObstacleNil(t *testing.T) {
	m := obstacleMission(t)
	if _, err := ClosestSnapshotNearObstacle(nil, m, 25); err == nil {
		t.Error("nil trajectory accepted")
	}
	if _, err := ClosestSnapshotNearObstacle(&sim.Trajectory{}, m, 25); err == nil {
		t.Error("empty trajectory accepted")
	}
}

// refMeanInterDist is the mean inter-drone distance the simulator used
// to record per sample: Pos.Dist summed over pairs i < j in that order,
// divided by the pair count. It skipped crashed drones, which a
// collision-free run has none of.
func refMeanInterDist(ps []vec.Vec3) float64 {
	sum, cnt := 0.0, 0
	for i := range ps {
		for j := i + 1; j < len(ps); j++ {
			sum += ps[i].Dist(ps[j])
			cnt++
		}
	}
	return sum / float64(cnt)
}

// TestTCloMatchesRecordedSeries pins t_clo to the series the simulator
// used to record: on collision-free clean runs, meanPairDist returns
// the reference's bits at every sample, and both snapshot functions
// pick the reference's first minimum, globally and inside the ±40 m
// window SwarmFuzz uses.
func TestTCloMatchesRecordedSeries(t *testing.T) {
	ctrl := flockController(t, flock.DefaultParams())
	const window = 40
	for _, n := range []int{3, 5, 15} {
		found := 0
		for seed := uint64(1); found < 4; seed++ {
			m, err := sim.NewMission(sim.DefaultMissionConfig(n, seed))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(m, sim.RunOptions{Controller: ctrl, RecordTrajectory: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Collisions) > 0 {
				continue // svg is only given collision-free runs
			}
			found++
			traj := res.Trajectory
			ob := m.Obstacle()
			global, near := -1, -1
			for s, ps := range traj.Positions {
				ref := refMeanInterDist(ps)
				if got := meanPairDist(ps); math.Float64bits(got) != math.Float64bits(ref) {
					t.Fatalf("n=%d seed=%d sample %d: meanPairDist %v, reference %v", n, seed, s, got, ref)
				}
				if global < 0 || ref < refMeanInterDist(traj.Positions[global]) {
					global = s
				}
				inWindow := math.Abs(vec.Mean(ps).Sub(ob.Center).Dot(m.Axis)) <= window
				if inWindow && (near < 0 || ref < refMeanInterDist(traj.Positions[near])) {
					near = s
				}
			}
			if near < 0 {
				near = global
			}
			snap, err := ClosestSnapshot(traj)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Time != traj.Times[global] {
				t.Errorf("n=%d seed=%d: global t_clo %v, reference %v", n, seed, snap.Time, traj.Times[global])
			}
			snap, err = ClosestSnapshotNearObstacle(traj, m, window)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Time != traj.Times[near] {
				t.Errorf("n=%d seed=%d: windowed t_clo %v, reference %v", n, seed, snap.Time, traj.Times[near])
			}
		}
	}
}
