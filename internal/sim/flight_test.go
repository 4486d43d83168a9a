package sim_test

import (
	"errors"
	"reflect"
	"testing"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

// captureRecorder snapshots what the runner hands a sim.FlightRecorder,
// copying everything during the call as the contract requires.
type captureRecorder struct {
	begins     int
	mission    *sim.Mission
	steps      []capturedStep
	collisions []sim.Collision
	ends       int
	endRes     *sim.Result
	endErr     error
}

type capturedStep struct {
	step     int
	time     float64
	bodies   []sim.Body
	readings []vec.Vec3
	commands []vec.Vec3
	bc       comms.Broadcast
}

var _ sim.FlightRecorder = (*captureRecorder)(nil)

func (r *captureRecorder) BeginFlight(m *sim.Mission, _ *gps.SpoofPlan) {
	r.begins++
	r.mission = m
}

func (r *captureRecorder) RecordStep(s sim.FlightStep) {
	cs := capturedStep{
		step:     s.Step,
		time:     s.Time,
		bodies:   append([]sim.Body(nil), s.Bodies...),
		commands: append([]vec.Vec3(nil), s.Commands...),
	}
	for _, rd := range s.Readings {
		cs.readings = append(cs.readings, rd.Position)
	}
	cs.bc = comms.Broadcast{
		Pos:    append([]vec.Vec3(nil), s.Broadcast.Pos...),
		Vel:    append([]vec.Vec3(nil), s.Broadcast.Vel...),
		Active: append([]bool(nil), s.Broadcast.Active...),
		Time:   s.Broadcast.Time,
	}
	r.steps = append(r.steps, cs)
}

func (r *captureRecorder) RecordCollision(c sim.Collision) {
	r.collisions = append(r.collisions, c)
}

func (r *captureRecorder) EndFlight(res *sim.Result, err error) {
	r.ends++
	r.endRes = res
	r.endErr = err
}

func TestFlightRecorderLifecycle(t *testing.T) {
	cfg := sim.SmallConfig(3, 2)
	cfg.ObstacleLateralJitter = 0
	m, err := sim.NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.World.Obstacles[0].Center = vec.New(500, 500, 0)
	rec := &captureRecorder{}
	res, err := sim.Run(m, sim.RunOptions{Controller: sim.Straight(2), Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	if rec.begins != 1 {
		t.Errorf("BeginFlight called %d times", rec.begins)
	}
	if rec.ends != 1 || rec.endRes != res || rec.endErr != nil {
		t.Errorf("EndFlight: ends=%d res-match=%v err=%v", rec.ends, rec.endRes == res, rec.endErr)
	}
	if len(rec.steps) == 0 {
		t.Fatal("no steps recorded")
	}
	for _, s := range rec.steps {
		if s.step%cfg.SampleEvery != 0 {
			t.Fatalf("step %d recorded off the sampling grid (every %d)", s.step, cfg.SampleEvery)
		}
		if len(s.bodies) != 3 || len(s.readings) != 3 || len(s.commands) != 3 {
			t.Fatalf("step %d slice lengths: %d/%d/%d", s.step, len(s.bodies), len(s.readings), len(s.commands))
		}
	}
}

// TestFlightRecorderStepConsistency pins the placement contract: at the
// instant RecordStep fires, re-running the controller's per-drone
// Command on the recorded readings and the neighbour rows rebuilt from
// the recorded broadcast reproduces the recorded commands bit for bit.
// This is what lets the flight log decompose every issued command after
// the fact. The flocking controller's flight-recorded runs take the
// batch kernel, so its case also holds the kernel to the per-drone
// oracle; the straight-line controller covers the row path.
func TestFlightRecorderStepConsistency(t *testing.T) {
	cases := []struct {
		name string
		n    int
		ctrl sim.Controller
	}{
		{"row path", 3, sim.Straight(2)},
		{"batch path", 5, flock.MustNew(flock.DefaultParams())},
	}
	for _, tc := range cases {
		m, err := sim.NewMission(sim.SmallConfig(tc.n, 5))
		if err != nil {
			t.Fatal(err)
		}
		rec := &captureRecorder{}
		if _, err := sim.Run(m, sim.RunOptions{Controller: tc.ctrl, Flight: rec}); err != nil {
			t.Fatal(err)
		}
		if len(rec.steps) == 0 {
			t.Fatalf("%s: no steps recorded", tc.name)
		}
		var nbs []comms.State
		for _, s := range rec.steps {
			for i := range s.bodies {
				if s.bodies[i].Crashed {
					continue
				}
				if s.bc.Time != s.time || !s.bc.Active[i] || s.bc.Pos[i] != s.readings[i] || s.bc.Vel[i] != s.bodies[i].Vel {
					t.Fatalf("%s: step %d drone %d: broadcast disagrees with the recorded state", tc.name, s.step, i)
				}
				nbs = s.bc.Neighbors(i, nbs)
				p := sim.Perception{ID: i, Velocity: s.bodies[i].Vel, Time: s.time}
				p.GPS.Position = s.readings[i]
				want := tc.ctrl.Command(p, nbs, &m.World)
				if got := s.commands[i]; !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
					t.Fatalf("%s: step %d drone %d: recorded command %#v, recomputed %#v", tc.name, s.step, i, got, want)
				}
			}
		}
	}
}

func TestFlightRecorderSeesCollisions(t *testing.T) {
	cfg := sim.SmallConfig(2, 3)
	m, err := sim.NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.World.Obstacles[0].Center = m.Start[0].Add(vec.New(0, 20, 0))
	rec := &captureRecorder{}
	res, err := sim.Run(m, sim.RunOptions{Controller: sim.Straight(2), Flight: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.collisions) != len(res.Collisions) {
		t.Fatalf("recorder saw %d collisions, result has %d", len(rec.collisions), len(res.Collisions))
	}
	for i, c := range rec.collisions {
		if c != res.Collisions[i] {
			t.Errorf("collision %d: recorded %+v, result %+v", i, c, res.Collisions[i])
		}
	}
}

func TestFlightRecorderEndOnError(t *testing.T) {
	m, err := sim.NewMission(sim.SmallConfig(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	rec := &captureRecorder{}
	_, err = sim.Run(m, sim.RunOptions{Controller: sim.NaNAfter(1), Flight: rec})
	if !errors.Is(err, robust.ErrDiverged) {
		t.Fatalf("err = %v, want robust.ErrDiverged", err)
	}
	if rec.ends != 1 {
		t.Fatalf("EndFlight called %d times on a diverged run, want exactly 1", rec.ends)
	}
	if !errors.Is(rec.endErr, robust.ErrDiverged) {
		t.Errorf("EndFlight err = %v, want the divergence error", rec.endErr)
	}
}

func TestFlightRecorderDoesNotPerturbRun(t *testing.T) {
	cfg := sim.DefaultMissionConfig(4, 11)
	cfg.MaxTime = 30
	m, err := sim.NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := sim.Run(m, sim.RunOptions{Controller: sim.Straight(2)})
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := sim.Run(m, sim.RunOptions{Controller: sim.Straight(2), Flight: &captureRecorder{}})
	if err != nil {
		t.Fatal(err)
	}
	if bare.Duration != recorded.Duration || bare.Completed != recorded.Completed {
		t.Error("recording changed the run summary")
	}
	for i := range bare.MinClearance {
		if bare.MinClearance[i] != recorded.MinClearance[i] {
			t.Fatalf("clearance %d differs with recording: %v vs %v", i, bare.MinClearance[i], recorded.MinClearance[i])
		}
	}
}
