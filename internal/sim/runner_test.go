package sim

import (
	"errors"
	"math"
	"testing"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/telemetry"
	"swarmfuzz/internal/vec"
)

// straightController flies every drone toward the destination at a
// fixed speed, ignoring everything else. It exercises the runner
// without depending on the flocking package.
type straightController struct{ speed float64 }

func (c straightController) Command(p Perception, _ []comms.State, w *World) vec.Vec3 {
	return w.Destination.Sub(p.GPS.Position).Horizontal().Unit().Scale(c.speed)
}

// towardController flies drone 0 east and drone 1 west so they collide.
type towardController struct{}

func (towardController) Command(p Perception, _ []comms.State, _ *World) vec.Vec3 {
	if p.ID == 0 {
		return vec.New(2, 0, 0)
	}
	return vec.New(-2, 0, 0)
}

func smallConfig(n int, seed uint64) MissionConfig {
	cfg := DefaultMissionConfig(n, seed)
	cfg.MissionLength = 60
	cfg.StartOffsetMax = 5
	cfg.MaxTime = 80
	cfg.GPSBias = 0
	cfg.GPSNoise = 0
	return cfg
}

func TestRunRequiresController(t *testing.T) {
	m, err := NewMission(smallConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(m, RunOptions{}); err == nil {
		t.Error("nil controller accepted")
	}
}

func TestRunSpoofValidation(t *testing.T) {
	m, err := NewMission(smallConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	bad := &gps.SpoofPlan{Target: -1, Direction: gps.Right}
	if _, err := Run(m, RunOptions{Controller: straightController{2}, Spoof: bad}); err == nil {
		t.Error("invalid spoof plan accepted")
	}
	outOfRange := &gps.SpoofPlan{Target: 5, Direction: gps.Right, Distance: 1, Duration: 1}
	if _, err := Run(m, RunOptions{Controller: straightController{2}, Spoof: outOfRange}); err == nil {
		t.Error("out-of-range spoof target accepted")
	}
}

// TestRejectedRunRecordsNothing pins that a run rejected by
// validation leaves no trace in telemetry: Run's wall clock starts
// before NewStepper, but only a run that passes validation counts or
// times itself.
func TestRejectedRunRecordsNothing(t *testing.T) {
	m, err := NewMission(smallConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	outOfRange := &gps.SpoofPlan{Target: 5, Direction: gps.Right, Distance: 1, Duration: 1}
	for name, opts := range map[string]RunOptions{
		"nil controller":     {},
		"invalid spoof plan": {Controller: straightController{2}, Spoof: &gps.SpoofPlan{Target: -1, Direction: gps.Right}},
		"spoof out of range": {Controller: straightController{2}, Spoof: outOfRange},
		"prefix with bus":    {Controller: straightController{2}, Prefix: &Trajectory{}, Bus: comms.NewPerfectBus()},
	} {
		reg := telemetry.NewRegistry()
		opts.Telemetry = telemetry.New(reg, nil)
		if _, err := Run(m, opts); err == nil {
			t.Fatalf("%s: run accepted", name)
		}
		snap := reg.Snapshot()
		if runs, steps := snap.Counters[telemetry.MSimRuns], snap.Counters[telemetry.MSimSteps]; runs != 0 || steps != 0 {
			t.Errorf("%s: sim_runs = %d, sim_steps = %d, want 0", name, runs, steps)
		}
		if h := snap.Histograms[telemetry.MSimWallSeconds]; h.Count != 0 {
			t.Errorf("%s: sim_wall_seconds has %d samples, want 0", name, h.Count)
		}
	}
}

func TestRunCompletesSimpleMission(t *testing.T) {
	cfg := smallConfig(3, 2)
	// Push the obstacle far away so the straight path is safe.
	cfg.ObstacleLateralJitter = 0
	m, err := NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.World.Obstacles[0].Center = vec.New(500, 500, 0)
	res, err := Run(m, RunOptions{Controller: straightController{2}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Errorf("mission not completed, duration %v", res.Duration)
	}
	if len(res.Collisions) != 0 {
		t.Errorf("unexpected collisions: %v", res.Collisions)
	}
	if res.Duration <= 0 || res.Duration > cfg.MaxTime {
		t.Errorf("implausible duration %v", res.Duration)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := DefaultMissionConfig(4, 11)
	cfg.MaxTime = 30
	m, err := NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Controller: straightController{2}, RecordTrajectory: true}
	a, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Duration != b.Duration || a.Completed != b.Completed {
		t.Error("summary differs across identical runs")
	}
	for i := range a.MinClearance {
		if a.MinClearance[i] != b.MinClearance[i] {
			t.Fatalf("clearance %d differs: %v vs %v", i, a.MinClearance[i], b.MinClearance[i])
		}
	}
	for s := range a.Trajectory.Times {
		for d := range a.Trajectory.Positions[s] {
			if a.Trajectory.Positions[s][d] != b.Trajectory.Positions[s][d] {
				t.Fatalf("trajectory diverged at sample %d drone %d", s, d)
			}
		}
	}
}

func TestRunObstacleCollision(t *testing.T) {
	cfg := smallConfig(2, 3)
	m, err := NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Put the obstacle dead ahead of drone 0's straight line.
	m.World.Obstacles[0].Center = m.Start[0].Add(vec.New(0, 20, 0))
	res, err := Run(m, RunOptions{Controller: straightController{2}})
	if err != nil {
		t.Fatal(err)
	}
	col := res.CollisionOf(0)
	if col == nil {
		t.Fatal("drone 0 did not collide with the obstacle dead ahead")
	}
	if col.Kind != KindObstacle {
		t.Errorf("collision kind %v, want obstacle", col.Kind)
	}
	if res.MinClearance[0] > 0 {
		t.Errorf("colliding drone has positive min clearance %v", res.MinClearance[0])
	}
	hit := false
	for _, c := range res.Collisions {
		hit = hit || c.Kind == KindObstacle
	}
	if !hit {
		t.Error("no obstacle collision recorded")
	}
}

func TestRunDroneCollision(t *testing.T) {
	cfg := smallConfig(2, 4)
	m, err := NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Place the two drones facing each other with a clear corridor.
	m.Start[0] = vec.New(0, 0, 10)
	m.Start[1] = vec.New(20, 0, 10)
	m.World.Obstacles[0].Center = vec.New(500, 500, 0)
	res, err := Run(m, RunOptions{Controller: towardController{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Collisions) != 2 {
		t.Fatalf("got %d collision records, want 2 (one per drone): %v", len(res.Collisions), res.Collisions)
	}
	for _, c := range res.Collisions {
		if c.Kind != KindDrone {
			t.Errorf("collision kind %v, want drone", c.Kind)
		}
	}
	for _, c := range res.Collisions {
		if c.Kind == KindObstacle {
			t.Error("drone-drone collision misclassified as obstacle")
		}
	}
}

func TestRunTrajectoryRecording(t *testing.T) {
	cfg := smallConfig(3, 5)
	cfg.SampleEvery = 4
	m, err := NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.World.Obstacles[0].Center = vec.New(500, 500, 0)
	res, err := Run(m, RunOptions{Controller: straightController{2}, RecordTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	traj := res.Trajectory
	if traj == nil || len(traj.Times) == 0 {
		t.Fatal("no trajectory recorded")
	}
	if len(traj.Positions) != len(traj.Times) || len(traj.Velocities) != len(traj.Times) {
		t.Fatal("trajectory slices length mismatch")
	}
	for i := 1; i < len(traj.Times); i++ {
		if traj.Times[i] <= traj.Times[i-1] {
			t.Fatalf("times not monotone at %d", i)
		}
	}
	for s := range traj.Times {
		if len(traj.Positions[s]) != cfg.NumDrones || len(traj.Velocities[s]) != cfg.NumDrones {
			t.Fatalf("sample %d holds %d positions and %d velocities, want %d each",
				s, len(traj.Positions[s]), len(traj.Velocities[s]), cfg.NumDrones)
		}
	}
	// Without the flag, no trajectory is recorded.
	res2, err := Run(m, RunOptions{Controller: straightController{2}})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trajectory != nil {
		t.Error("trajectory recorded without the flag")
	}
}

func TestRunSpoofedTargetDeviates(t *testing.T) {
	// Under spoofing, the perceived position shifts laterally, so a
	// destination-seeking controller physically deviates the opposite
	// way. Compare final lateral positions with and without attack.
	cfg := smallConfig(2, 6)
	cfg.MaxTime = 40
	m, err := NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.World.Obstacles[0].Center = vec.New(500, 500, 0)
	clean, err := Run(m, RunOptions{Controller: straightController{2}, RecordTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := &gps.SpoofPlan{Target: 0, Start: 5, Duration: 20, Direction: gps.Right, Distance: 10}
	spoofed, err := Run(m, RunOptions{Controller: straightController{2}, Spoof: plan, RecordTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	// Compare drone 0's lateral (X) position midway through the attack.
	sample := -1
	for i, tm := range clean.Trajectory.Times {
		if tm >= 20 {
			sample = i
			break
		}
	}
	if sample < 0 {
		t.Fatal("no sample at t>=20")
	}
	dx := spoofed.Trajectory.Positions[sample][0].X - clean.Trajectory.Positions[sample][0].X
	if math.Abs(dx) < 1 {
		t.Errorf("spoofed target deviated only %.2fm laterally", dx)
	}
	// Drone 1 is not targeted and (with no interaction controller)
	// must be unaffected.
	dx1 := spoofed.Trajectory.Positions[sample][1].X - clean.Trajectory.Positions[sample][1].X
	if math.Abs(dx1) > 1e-9 {
		t.Errorf("untargeted drone moved %.2fm under spoofing of drone 0", dx1)
	}
}

func TestCollisionKindString(t *testing.T) {
	if KindObstacle.String() != "obstacle" || KindDrone.String() != "drone" {
		t.Error("collision kind strings wrong")
	}
	if got := CollisionKind(9).String(); got != "CollisionKind(9)" {
		t.Errorf("unknown kind String = %q", got)
	}
}

func vecNew(x, y, z float64) vec.Vec3 { return vec.New(x, y, z) }

func meanVec(vs []vec.Vec3) vec.Vec3 { return vec.Mean(vs) }

// nanController returns a non-finite command after the given time,
// driving the integrator's state out of the finite domain.
type nanController struct{ after float64 }

func (c nanController) Command(p Perception, _ []comms.State, w *World) vec.Vec3 {
	if p.Time >= c.after {
		return vec.New(math.NaN(), 0, 0)
	}
	return w.Destination.Sub(p.GPS.Position).Horizontal().Unit()
}

func TestRunDivergenceGuard(t *testing.T) {
	m, err := NewMission(smallConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(m, RunOptions{Controller: nanController{after: 1}})
	if !errors.Is(err, robust.ErrDiverged) {
		t.Fatalf("err = %v, want robust.ErrDiverged", err)
	}
}
