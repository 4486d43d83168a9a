package sim_test

import (
	"math"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

// commandFunc is one drone's command from its own perception, its
// neighbours' broadcasts and the world: (*flock.Controller).Command or
// a scripted test function.
type commandFunc func(p sim.Perception, nb []comms.State, w *sim.World) vec.Vec3

// specRun is the simulator's step as its specification states it,
// with no fast path: every step each active drone's receiver perceives
// its true position with the next noise streamed from its own GPS
// sensor, and the spoofer shifts the target's fix; each
// active drone derives its command from its own reading and the
// readings and velocities of every other active drone, in ascending
// index order; each body's velocity relaxes toward the command under
// three norm clamps; every active drone's clearance is its exact
// surface distance to the nearest obstacle, less its radius, and
// contact crashes it; then every pair (i, j), i ascending and j the
// smallest partner, closer than two radii crashes both. It returns the
// run's result and the steps it ran.
func specRun(m *sim.Mission, cmd commandFunc, plan *gps.SpoofPlan, record bool) (*sim.Result, int64) {
	cfg := m.Config
	n := cfg.NumDrones
	pos := append([]vec.Vec3(nil), m.Start...)
	vel := make([]vec.Vec3, n)
	crashed := make([]bool, n)
	sensors := make([]*gps.Sensor, n)
	for i := range sensors {
		sensors[i] = gps.NewSensor(cfg.GPSBias, cfg.GPSNoise, rng.DeriveN(cfg.Seed, "gps", i))
	}
	var spoofer *gps.Spoofer
	if plan != nil {
		spoofer = gps.NewSpoofer(*plan, m.Axis)
	}
	nearest := func(p vec.Vec3) (int, float64) {
		k, best := -1, math.Inf(1)
		for j, o := range m.World.Obstacles {
			if d := o.SurfaceDistance(p); d < best {
				k, best = j, d
			}
		}
		return k, best - cfg.DroneRadius
	}
	clamp := func(v vec.Vec3, max float64) vec.Vec3 {
		if l := v.Norm(); !(l <= max) {
			return v.Scale(max / l)
		}
		return v
	}
	res := &sim.Result{MinClearance: make([]float64, n), Duration: cfg.MaxTime}
	for i, p := range pos {
		_, res.MinClearance[i] = nearest(p)
	}
	if record {
		res.Trajectory = &sim.Trajectory{}
	}
	readings := make([]gps.Reading, n)
	cmds := make([]vec.Vec3, n)
	var states, nb []comms.State
	last := int(cfg.MaxTime / cfg.Dt)
	var steps int64
	for step := 0; step <= last; step++ {
		steps++
		t := float64(step) * cfg.Dt
		for i := range pos {
			if !crashed[i] {
				readings[i] = gps.Reading{Position: sensors[i].Receiver().Perceive(pos[i], sensors[i].Noise()), Time: t}
			}
		}
		if spoofer != nil && !crashed[plan.Target] {
			if off, ok := spoofer.Offset(plan.Target, t); ok {
				readings[plan.Target].Position = readings[plan.Target].Position.Add(off)
				readings[plan.Target].Spoofed = true
			}
		}
		states = states[:0]
		for j := range pos {
			if !crashed[j] {
				states = append(states, comms.State{ID: j, Position: readings[j].Position, Velocity: vel[j], Time: t})
			}
		}
		for k, s := range states {
			nb = append(append(nb[:0], states[:k]...), states[k+1:]...)
			cmds[s.ID] = cmd(sim.Perception{ID: s.ID, GPS: readings[s.ID], Velocity: vel[s.ID], Time: t}, nb, &m.World)
		}
		for i := range pos {
			if crashed[i] {
				continue
			}
			c := clamp(cmds[i], cfg.Body.MaxSpeed)
			accel := clamp(c.Sub(vel[i]).Scale(1/cfg.Body.Tau), cfg.Body.MaxAccel)
			vel[i] = clamp(vel[i].Add(accel.Scale(cfg.Dt)), cfg.Body.MaxSpeed)
			pos[i] = pos[i].Add(vel[i].Scale(cfg.Dt))
		}
		for i := range pos {
			if crashed[i] {
				continue
			}
			k, c := nearest(pos[i])
			if c < res.MinClearance[i] {
				res.MinClearance[i] = c
			}
			if k >= 0 && c <= 0 {
				crashed[i] = true
				res.Collisions = append(res.Collisions, sim.Collision{Drone: i, Kind: sim.KindObstacle, Other: k, Time: t, Pos: pos[i]})
			}
		}
		for i := range pos {
			for j := i + 1; j < n && !crashed[i]; j++ {
				if !crashed[j] && pos[i].Sub(pos[j]).Norm() <= 2*cfg.DroneRadius {
					crashed[i], crashed[j] = true, true
					res.Collisions = append(res.Collisions,
						sim.Collision{Drone: i, Kind: sim.KindDrone, Other: j, Time: t, Pos: pos[i]},
						sim.Collision{Drone: j, Kind: sim.KindDrone, Other: i, Time: t, Pos: pos[j]})
				}
			}
		}
		if tr := res.Trajectory; tr != nil && step%cfg.SampleEvery == 0 {
			tr.Times = append(tr.Times, t)
			tr.Positions = append(tr.Positions, append([]vec.Vec3(nil), pos...))
			tr.Velocities = append(tr.Velocities, append([]vec.Vec3(nil), vel...))
		}
		arrived, active := true, false
		for i, p := range pos {
			if !crashed[i] {
				active = true
				arrived = arrived && p.Sub(m.World.Destination).Dot(m.Axis) >= -m.World.DestRadius
			}
		}
		if arrived && active {
			res.Completed, res.Duration = true, t
			break
		}
	}
	return res, steps
}
