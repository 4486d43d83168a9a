package sim_test

// Integration tests exercising the simulator with the real flocking
// controller and degraded communication — the full substrate stack.

import (
	"math"
	"testing"

	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

func flockController(t *testing.T) *flock.Controller {
	t.Helper()
	c, err := flock.New(flock.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFlockMissionCompletesSafely(t *testing.T) {
	ctrl := flockController(t)
	for _, n := range []int{5, 10} {
		for seed := uint64(1); seed <= 3; seed++ {
			m, err := sim.NewMission(sim.DefaultMissionConfig(n, seed))
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(m, sim.RunOptions{Controller: ctrl})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Errorf("n=%d seed=%d: mission did not complete (%.1fs)", n, seed, res.Duration)
			}
			if len(res.Collisions) > 0 {
				t.Errorf("n=%d seed=%d: clean mission collided: %v", n, seed, res.Collisions)
			}
		}
	}
}

func TestFlockMissionDurationPlausible(t *testing.T) {
	// A 233.5 m mission at VFlock = 2 m/s should take roughly two
	// minutes, like the paper's ~120 s missions.
	ctrl := flockController(t)
	m, err := sim.NewMission(sim.DefaultMissionConfig(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(m, sim.RunOptions{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration < 100 || res.Duration > 180 {
		t.Errorf("mission duration %.1fs outside the plausible 100–180s band", res.Duration)
	}
}

func TestFlockKeepsSeparation(t *testing.T) {
	ctrl := flockController(t)
	m, err := sim.NewMission(sim.DefaultMissionConfig(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(m, sim.RunOptions{Controller: ctrl, RecordTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	minPair := math.Inf(1)
	for s := range res.Trajectory.Times {
		pos := res.Trajectory.Positions[s]
		for i := range pos {
			for j := i + 1; j < len(pos); j++ {
				if d := pos[i].Dist(pos[j]); d < minPair {
					minPair = d
				}
			}
		}
	}
	// Repulsion must keep pairs well apart from the collision
	// threshold (2 × 0.25 m).
	if minPair < 1.0 {
		t.Errorf("minimum pairwise distance %.2fm dangerously small", minPair)
	}
}

func TestSpoofedFlockTargetBroadcastsOffset(t *testing.T) {
	// Under spoofing the swarm behaviour changes measurably: compare
	// trajectories with and without the attack.
	ctrl := flockController(t)
	m, err := sim.NewMission(sim.DefaultMissionConfig(5, 8))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := sim.Run(m, sim.RunOptions{Controller: ctrl, RecordTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := &gps.SpoofPlan{Target: 1, Start: 30, Duration: 20, Direction: gps.Right, Distance: 10}
	spoofed, err := sim.Run(m, sim.RunOptions{Controller: ctrl, Spoof: plan, RecordTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	// Find the sample at t=45 (mid-attack) and measure total
	// displacement across the swarm.
	idx := -1
	for i, tm := range clean.Trajectory.Times {
		if tm >= 45 {
			idx = i
			break
		}
	}
	if idx < 0 || idx >= len(spoofed.Trajectory.Times) {
		t.Fatal("no comparable sample at t=45")
	}
	total := 0.0
	for d := 0; d < 5; d++ {
		total += clean.Trajectory.Positions[idx][d].Dist(spoofed.Trajectory.Positions[idx][d])
	}
	// The coupling strength depends on whether the displaced broadcast
	// crosses an interaction boundary for this geometry; any measurable
	// displacement demonstrates propagation beyond the target itself.
	if total < 0.5 {
		t.Errorf("spoofing displaced the swarm by only %.2fm total", total)
	}
}

func TestFlockMultiObstacleMission(t *testing.T) {
	// The paper (§VI) notes that other mission types only change the
	// obstacle inputs. The world supports multiple obstacles: add a
	// second cylinder later on the path and check the swarm threads
	// both safely.
	ctrl := flockController(t)
	m, err := sim.NewMission(sim.DefaultMissionConfig(5, 9))
	if err != nil {
		t.Fatal(err)
	}
	first := m.Obstacle()
	second := sim.Obstacle{
		Center: first.Center.Add(vecNew3(10, 60, 0)),
		Radius: first.Radius,
	}
	m.World.Obstacles = append(m.World.Obstacles, second)
	res, err := sim.Run(m, sim.RunOptions{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Errorf("two-obstacle mission incomplete (%.1fs)", res.Duration)
	}
	if len(res.Collisions) > 0 {
		t.Errorf("two-obstacle mission collided: %v", res.Collisions)
	}
}

func vecNew3(x, y, z float64) vec.Vec3 { return vec.New(x, y, z) }
