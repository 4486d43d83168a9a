package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

// scripted runs a commandFunc on the batch path: BatchCommands returns
// the exact minimum squared distance between active broadcasts, as
// flock's kernel does, so the Stepper gates its drone-pair scan on it.
type scripted commandFunc

func (f scripted) Command(p sim.Perception, nb []comms.State, w *sim.World) vec.Vec3 {
	return f(p, nb, w)
}

func (scripted) NewBatchScratch(int, *sim.World) any { return nil }

func (f scripted) BatchCommands(b *comms.Broadcast, w *sim.World, _ any, cmds []vec.Vec3) float64 {
	minD2 := math.Inf(1)
	var nb []comms.State
	for i := range cmds {
		cmds[i] = vec.Zero
		if !b.Active[i] {
			continue
		}
		nb = b.Neighbors(i, nb)
		cmds[i] = f(sim.Perception{ID: i, GPS: gps.Reading{Position: b.Pos[i], Time: b.Time}, Velocity: b.Vel[i], Time: b.Time}, nb, w)
		for j := i + 1; j < len(cmds); j++ {
			if d2 := b.Pos[j].Sub(b.Pos[i]).NormSq(); b.Active[j] && d2 < minD2 {
				minD2 = d2
			}
		}
	}
	return minD2
}

// specCase is one mission under one controller: run is what sim.Run
// gets and cmd what specRun calls.
type specCase struct {
	name string
	m    *sim.Mission
	run  sim.Controller
	cmd  commandFunc
}

func flockCase(name string, m *sim.Mission, c *flock.Controller) specCase {
	return specCase{name, m, c, c.Command}
}

func scriptedCase(name string, m *sim.Mission, f commandFunc) specCase {
	return specCase{name, m, scripted(f), f}
}

// requireSpec runs m under opts through sim.Run and requires one
// counted simulation of wantSteps steps whose exported result equals
// want bit for bit. It returns sim.Run's result.
func requireSpec(t *testing.T, label string, m *sim.Mission, opts sim.RunOptions, want *sim.Result, wantSteps int64) *sim.Result {
	t.Helper()
	got, runs, steps := countedRun(t, m, opts)
	if runs != 1 || steps != wantSteps {
		t.Fatalf("%s: %d runs of %d steps, want 1 of %d", label, runs, steps, wantSteps)
	}
	// Trajectories compare by their exported samples, apart from the
	// rest, so that a failure does not print thousands of samples.
	g, w := *got, *want
	g.Trajectory, w.Trajectory = nil, nil
	requireBitIdentical(t, label, &g, &w)
	samples := func(tr *sim.Trajectory) any {
		if tr == nil {
			return nil
		}
		return [3]any{tr.Times, tr.Positions, tr.Velocities}
	}
	if gs, ws := samples(got.Trajectory), samples(want.Trajectory); !reflect.DeepEqual(gs, ws) || !sameBits(reflect.ValueOf(gs), reflect.ValueOf(ws)) {
		t.Fatalf("%s: trajectories differ", label)
	}
	return got
}

// clean holds c's recorded clean run, and the unspoofed run resumed
// from it, to the reference. It returns the recorded run and its steps.
func (c specCase) clean(t *testing.T) (*sim.Result, int64) {
	t.Helper()
	want, steps := specRun(c.m, c.cmd, nil, true)
	clean := requireSpec(t, c.name+" clean", c.m, sim.RunOptions{Controller: c.run, RecordTrajectory: true}, want, steps)
	want.Trajectory = nil
	requireSpec(t, c.name+" resumed unspoofed", c.m, sim.RunOptions{Controller: c.run, Prefix: clean.Trajectory},
		want, steps-expectedForkStep(steps, c.m.Config.Dt, nil))
	return clean, steps
}

// spoofed holds every plan's full run, and its run resumed from the
// clean recording, to the reference.
func (c specCase) spoofed(t *testing.T, clean *sim.Result, cleanSteps int64, plans []gps.SpoofPlan) {
	t.Helper()
	for i := range plans {
		plan := &plans[i]
		label := c.name + " " + plan.String()
		want, steps := specRun(c.m, c.cmd, plan, false)
		requireSpec(t, label, c.m, sim.RunOptions{Controller: c.run, Spoof: plan}, want, steps)
		requireSpec(t, label+" resumed", c.m, sim.RunOptions{Controller: c.run, Spoof: plan, Prefix: clean.Trajectory},
			want, steps-expectedForkStep(cleanSteps, c.m.Config.Dt, plan))
	}
}

// everyFork resumes c's mission from each fork point of its clean
// recording under a plan that cannot act (zero distance), so each
// resumed run must reproduce the clean reference.
func (c specCase) everyFork(t *testing.T, clean *sim.Result, cleanSteps int64) {
	t.Helper()
	want, steps := specRun(c.m, c.cmd, nil, false)
	dt := c.m.Config.Dt
	for k := int64(0); k < cleanSteps; k += sim.ForkEvery {
		plan := &gps.SpoofPlan{Start: float64(k) * dt, Direction: gps.Right}
		requireSpec(t, fmt.Sprintf("%s resumed at step %d", c.name, k), c.m,
			sim.RunOptions{Controller: c.run, Spoof: plan, Prefix: clean.Trajectory},
			want, steps-expectedForkStep(cleanSteps, dt, plan))
	}
}

// droneCollisions counts the KindDrone records of r.
func droneCollisions(r *sim.Result) int {
	k := 0
	for _, c := range r.Collisions {
		if c.Kind == sim.KindDrone {
			k++
		}
	}
	return k
}

// scriptedMission returns a noise-free mission of the given drones in
// world w, whose bodies reach a commanded velocity in one step:
// Dt = Tau = 1/16 s, so dyadic commands and start positions keep
// every position exact.
func scriptedMission(w sim.World, start ...vec.Vec3) *sim.Mission {
	cfg := sim.DefaultMissionConfig(len(start), 1)
	cfg.GPSBias, cfg.GPSNoise = 0, 0
	cfg.Dt, cfg.MaxTime = 0.0625, 20
	cfg.Body = sim.BodyParams{Tau: 0.0625, MaxAccel: 1000, MaxSpeed: 8}
	if w.Destination == vec.Zero {
		w.Destination, w.DestRadius = vec.New(0, 1e4, 10), 8
	}
	return &sim.Mission{Config: cfg, Start: start, World: w, Axis: vec.New(0, 1, 0)}
}

// fixed commands every drone its own constant velocity.
func fixed(cmds ...vec.Vec3) commandFunc {
	return func(p sim.Perception, _ []comms.State, _ *sim.World) vec.Vec3 { return cmds[p.ID] }
}

// circler flies drones 0..n−1 round c at speed, commanding the tangent
// at each GPS fix, and holds the rest in place. At 0.1 µm/s a step
// moves a drone ~6e-9 m, whose square against a ~10 m radius is far
// below one ulp, so the radius walks by the roundings of the positions
// alone: consecutive squared distances stay within 1e-9 relative while
// Hypot orders the positions by ulps either way.
func circler(c vec.Vec3, speed float64, n int) commandFunc {
	return func(p sim.Perception, _ []comms.State, _ *sim.World) vec.Vec3 {
		if p.ID >= n {
			return vec.Zero
		}
		r := p.GPS.Position.Sub(c)
		return vec.New(-r.Y, r.X, 0).Unit().Scale(speed)
	}
}

// flockLike steers every drone to the destination and away from the
// obstacle and its neighbours by GPS alone, enough to make a spoof
// matter and to fly some drones into the obstacle.
func flockLike(p sim.Perception, nb []comms.State, w *sim.World) vec.Vec3 {
	pos := p.GPS.Position
	cmd := w.Destination.Sub(pos).Horizontal().Unit().Scale(2)
	for _, o := range w.Obstacles {
		if s := o.SurfaceDistance(pos); s < 8 {
			cmd = cmd.Add(o.OutwardNormal(pos).Scale(1.5 * (1 - s/8)))
		}
	}
	for _, s := range nb {
		if rel := pos.Sub(s.Position); rel.Norm() < 5 {
			cmd = cmd.Add(rel.Unit().Scale(0.8 * (5 - rel.Norm())))
		}
	}
	if l := cmd.Norm(); l > 4 {
		cmd = cmd.Scale(4 / l)
	}
	return cmd
}

// ramming flies drones 0 and 1 straight at each other and leaves the
// rest to c, so a clean run records an early drone-drone collision
// before most of its fork points.
func ramming(c *flock.Controller) commandFunc {
	return func(p sim.Perception, nb []comms.State, w *sim.World) vec.Vec3 {
		if p.ID > 1 {
			return c.Command(p, nb, w)
		}
		for _, s := range nb {
			if s.ID == 1-p.ID {
				return s.Position.Sub(p.GPS.Position).Unit().Scale(8)
			}
		}
		return vec.Zero
	}
}

// mission builds the default mission of n drones and seed, with cfg
// edited by each option.
func mission(t *testing.T, n int, seed uint64, edit ...func(*sim.MissionConfig)) *sim.Mission {
	t.Helper()
	cfg := sim.DefaultMissionConfig(n, seed)
	for _, e := range edit {
		e(&cfg)
	}
	m, err := sim.NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRunMatchesSpec holds sim.Run, with every fast path the Stepper
// and the flock kernel take, to specRun bit for bit: every exported
// Result field, every trajectory sample and the step count, for full
// runs and for runs resumed from a clean recording's fork points.
func TestRunMatchesSpec(t *testing.T) {
	ctrl := flockController(t, flock.DefaultParams())

	// Table I and the fuzzers' traffic: clean recordings, and spoofed
	// runs at 5 and 10 m over forkPlans' windows, also past Table I's
	// sizes at n = 30 and 50. At n ≥ 30 it takes two of the windows
	// around a fork boundary, one at each distance.
	for _, n := range []int{3, 5, 10, 15, 30, 50} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			t.Parallel()
			c := flockCase(fmt.Sprintf("n=%d", n), mission(t, n, uint64(n)), ctrl)
			clean, steps := c.clean(t)
			plans := forkPlans(c.m, clean, n/2, rng.New(uint64(n)))
			for i := range plans {
				plans[i].Distance = []float64{10, 5}[i%2]
			}
			if n >= 30 {
				plans = []gps.SpoofPlan{plans[1], plans[12]}
			}
			c.spoofed(t, clean, steps, plans)
		})
	}

	// Receivers with no noise, no bias or neither: a resumed run's
	// shared noise table must reproduce each fresh sensor.
	t.Run("gps error", func(t *testing.T) {
		t.Parallel()
		for _, e := range [][2]float64{{0.4, 0}, {0, 0.12}, {0, 0}} {
			for seed := uint64(1); seed <= 2; seed++ {
				m := mission(t, 5, seed, func(cfg *sim.MissionConfig) { cfg.GPSBias, cfg.GPSNoise = e[0], e[1] })
				c := flockCase(fmt.Sprintf("bias=%v noise=%v seed=%d", e[0], e[1], seed), m, ctrl)
				clean, steps := c.clean(t)
				c.spoofed(t, clean, steps, forkPlans(m, clean, int(seed), rng.New(seed+50)))
			}
		}
	})

	// Drone-drone collisions: without repulsion and with strong
	// cohesion the swarm folds onto itself, and two drones ramming each
	// other leave crashed drones and a collision in most fork points.
	t.Run("drone collisions", func(t *testing.T) {
		t.Parallel()
		p := flock.DefaultParams()
		p.RRep, p.PRep = 0.05, 0
		p.RAtt, p.PAtt, p.VAttMax = 0.1, 2, p.VMax
		folding := flockController(t, p)
		for _, n := range []int{5, 50} {
			for _, noisy := range []bool{true, false} {
				m := mission(t, n, 3, func(cfg *sim.MissionConfig) {
					if !noisy {
						cfg.GPSBias, cfg.GPSNoise = 0, 0
					}
				})
				clean, _ := flockCase(fmt.Sprintf("folding n=%d noisy=%v", n, noisy), m, folding).clean(t)
				if droneCollisions(clean) == 0 {
					t.Fatalf("folding n=%d noisy=%v: no drone-drone collisions", n, noisy)
				}
			}
		}
		m := mission(t, 5, 2)
		c := scriptedCase("ramming", m, ramming(ctrl))
		clean, steps := c.clean(t)
		if droneCollisions(clean) == 0 || clean.Collisions[0].Time >= float64(10*sim.ForkEvery)*m.Config.Dt {
			t.Fatalf("ramming: want a drone collision before the boundary plans, got %v", clean.Collisions)
		}
		c.spoofed(t, clean, steps, forkPlans(m, clean, 3, rng.New(7)))
	})

	// Random flock radii: some square into the subnormal band or below
	// vec.PaddedSq's range, where the kernel's gates are NaN and every
	// pair takes the exact branches, and some order RRep > RFrict.
	t.Run("random radii", func(t *testing.T) {
		t.Parallel()
		src := rng.New(28)
		radius := func() float64 {
			if src.Uniform(0, 1) < 0.4 {
				return math.Ldexp(src.Uniform(1, 2), -545+int(src.Uniform(0, 50)))
			}
			return src.Uniform(0.5, 30)
		}
		var tiny, repFar int
		for k := 0; k < 8; k++ {
			p := flock.DefaultParams()
			p.RRep, p.RAtt, p.RFrict, p.RShill = radius(), radius(), radius(), radius()
			if p.RAtt < p.RRep {
				p.RAtt, p.RRep = p.RRep, p.RAtt
			}
			if min(p.RRep, p.RFrict, p.RShill) < 0x1p-500 {
				tiny++
			}
			if p.RRep > p.RFrict {
				repFar++
			}
			m := mission(t, 5+5*(k%3), uint64(k))
			c := flockCase(fmt.Sprintf("radii %+v", p), m, flockController(t, p))
			clean, steps := c.clean(t)
			c.spoofed(t, clean, steps, forkPlans(m, clean, k%5, src)[1:3])
		}
		if tiny == 0 || repFar == 0 {
			t.Fatalf("radii reached the tiny band %d times and RRep > RFrict %d times; want both", tiny, repFar)
		}
	})

	// Scripted obstacle cases, each resumed from every fork point:
	// approach then retreat, a switching nearest obstacle, positions
	// whose squared distances differ by less than 1e-9 relative,
	// contact on the exact step, starts at or inside contact, and no
	// obstacles.
	t.Run("obstacles", func(t *testing.T) {
		t.Parallel()
		o := sim.Obstacle{Center: vec.New(0, 0, 0), Radius: 4}
		one := sim.World{Obstacles: []sim.Obstacle{o}}
		cases := []struct {
			c     specCase
			crash int // obstacle collisions
		}{
			{scriptedCase("approach then retreat", scriptedMission(one, vec.New(6.3, -20.1, 10), vec.New(-7.7, -20.1, 10)),
				fixed(vec.New(0.1, 2, 0), vec.New(-0.05, 2, 0))), 0},
			{scriptedCase("nearest obstacle switches", scriptedMission(sim.World{Obstacles: []sim.Obstacle{o, {Center: vec.New(2.2, 30, 0), Radius: 3}}},
				vec.New(8.1, -10, 10), vec.New(-9, -10, 10)), fixed(vec.New(0, 2.5, 0), vec.New(0, 2.5, 0))), 0},
			{scriptedCase("inside the band", scriptedMission(one, vec.New(7.31, 6.87, 10), vec.New(-5.93, 8.41, 10), vec.New(0, -9.5, 10)),
				circler(o.Center, 1e-7, 2)), 0},
			{scriptedCase("contact on the exact step", scriptedMission(one, vec.New(5.25, 0, 10), vec.New(-20, 0, 10)),
				fixed(vec.New(-2, 0, 0), vec.Zero)), 1},
			{scriptedCase("starts at or inside contact", scriptedMission(one, vec.New(1, 0, 10), vec.New(0, -4.25, 10), vec.New(30, 0, 10)),
				fixed(vec.Zero, vec.Zero, vec.New(-2, 0, 0))), 3},
			{scriptedCase("no obstacles", scriptedMission(sim.World{}, vec.New(0, 0, 10), vec.New(6, 0, 10)),
				fixed(vec.New(1, 1, 0), vec.New(-1, 0.5, 0))), 0},
		}
		for _, tc := range cases {
			clean, steps := tc.c.clean(t)
			if got := len(clean.Collisions) - droneCollisions(clean); got != tc.crash {
				t.Fatalf("%s: %d obstacle collisions, want %d", tc.c.name, got, tc.crash)
			}
			tc.c.everyFork(t, clean, steps)
		}
		// Default missions under flockLike; seeds 1 and 3 fly a drone
		// into the obstacle.
		for seed := uint64(1); seed <= 3; seed++ {
			c := scriptedCase(fmt.Sprintf("flockLike seed %d", seed), mission(t, 5, seed), flockLike)
			clean, steps := c.clean(t)
			var plans []gps.SpoofPlan
			for v := 0; v < 5; v += 2 {
				plans = append(plans, gps.SpoofPlan{Target: v, Start: 8 + float64(v), Duration: 15, Direction: gps.Right, Distance: 10})
			}
			c.spoofed(t, clean, steps, plans)
			c.everyFork(t, clean, steps)
		}
	})

	// Two noise-free drones head-on at MaxSpeed = 8 m/s with Dt = 1/16
	// s close their gap by 1 m a step against a collision threshold of
	// 0.5 m, so a pair perceived up to 1.5 m apart at the start of a
	// step can collide by its end. The start gaps sweep one step of
	// phase: the crossing step starts at every gap in (0.5, 1.5] in
	// 1/16 m increments, where the pair-scan gate needs both endpoints'
	// displacement.
	t.Run("head-on", func(t *testing.T) {
		t.Parallel()
		headOn := func(p sim.Perception, _ []comms.State, _ *sim.World) vec.Vec3 {
			return vec.New(8-16*float64(p.ID), 0, 0)
		}
		for k := 0; k < 16; k++ {
			gap := 6 + float64(k)/16
			m := scriptedMission(sim.World{Obstacles: []sim.Obstacle{{Center: vec.New(0, 500, 0), Radius: 4}}},
				vec.New(0, 0, 10), vec.New(gap, 0, 10))
			m.Config.MaxTime = 2
			clean, _ := scriptedCase(fmt.Sprintf("gap %v", gap), m, headOn).clean(t)
			if droneCollisions(clean) != 2 {
				t.Fatalf("gap %v: collisions %v, want one drone pair", gap, clean.Collisions)
			}
		}
	})
}
