package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/vec"
)

// fixedController commands every drone its own constant velocity,
// ignoring its perception.
type fixedController []vec.Vec3

func (c fixedController) Command(p Perception, _ []comms.State, _ *World) vec.Vec3 { return c[p.ID] }

// scriptedMission returns a noise-free mission of the given drones in
// world w, whose bodies reach a commanded velocity in one step:
// Dt = Tau = 1/16 s, so dyadic commands and start positions keep
// every position exact.
func scriptedMission(w World, start ...vec.Vec3) *Mission {
	cfg := DefaultMissionConfig(len(start), 1)
	cfg.GPSBias, cfg.GPSNoise = 0, 0
	cfg.Dt, cfg.MaxTime = 0.0625, 20
	cfg.Body = BodyParams{Tau: 0.0625, MaxAccel: 1000, MaxSpeed: 8}
	if w.Destination == vec.Zero {
		w.Destination, w.DestRadius = vec.New(0, 1e4, 10), 8
	}
	return &Mission{Config: cfg, Start: start, World: w, Axis: vec.New(0, 1, 0)}
}

// sameFloats reports whether a and b hold the same bits.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkEagerClearance runs m with opts on a Stepper and, after every
// step, the eager per-step obstacle pass the Stepper defers: every
// drone not crashed before the step runs through NearestObstacle,
// lowers its minimum with clear < min and collides at clear ≤ 0. The
// run's MinClearance, its obstacle collisions and, on a recording
// run, every fork snapshot's clearances must match that formula bit
// for bit. It returns the run's Result and the eager obstacle
// collisions.
func checkEagerClearance(t *testing.T, label string, m *Mission, opts RunOptions) (*Result, []Collision) {
	t.Helper()
	st, err := NewStepper(m, opts)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	n, dr := len(st.bodies), m.Config.DroneRadius
	want := append([]float64(nil), st.res.MinClearance...)
	if opts.Prefix == nil {
		for i, p := range m.Start {
			if _, d := m.World.NearestObstacle(p); math.Float64bits(want[i]) != math.Float64bits(d-dr) {
				t.Fatalf("%s: drone %d starts with clearance %v, want %v", label, i, want[i], d-dr)
			}
		}
	}
	before := len(st.res.Collisions)
	var hits []Collision
	var snaps [][]float64
	crashed := make([]bool, n)
	for done := false; !done; {
		if st.forks != nil && st.step%forkEvery == 0 {
			snaps = append(snaps, append([]float64(nil), want...))
		}
		for i := range crashed {
			crashed[i] = st.bodies[i].Crashed
		}
		tm := float64(st.step) * m.Config.Dt
		if done, err = st.Step(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for i, b := range st.bodies {
			if crashed[i] {
				continue
			}
			oi, d := m.World.NearestObstacle(b.Pos)
			c := d - dr
			if c < want[i] {
				want[i] = c
			}
			if oi >= 0 && c <= 0 {
				hits = append(hits, Collision{Drone: i, Kind: KindObstacle, Other: oi, Time: tm, Pos: b.Pos})
			}
		}
	}
	res := st.Result()
	if !sameFloats(res.MinClearance, want) {
		t.Fatalf("%s: MinClearance %v, eager pass %v", label, res.MinClearance, want)
	}
	var got []Collision
	for _, c := range res.Collisions[before:] {
		if c.Kind == KindObstacle {
			got = append(got, c)
		}
	}
	if !reflect.DeepEqual(got, hits) {
		t.Fatalf("%s: obstacle collisions %v, eager pass %v", label, got, hits)
	}
	if st.forks != nil {
		if len(snaps) != len(st.forks.ncoll) {
			t.Fatalf("%s: %d fork snapshots, expected %d", label, len(st.forks.ncoll), len(snaps))
		}
		for k, snap := range snaps {
			if got := st.forks.clear[k*n : (k+1)*n]; !sameFloats(got, snap) {
				t.Fatalf("%s: snapshot %d (step %d) holds clearances %v, eager pass %v", label, k, k*forkEvery, got, snap)
			}
		}
	}
	return res, hits
}

// TestDeferredClearanceMatchesEager pins the Stepper's deferred
// clearance (deferClearance, foldHeld) to the eager per-step pass it
// replaced, bit for bit, on runs that record fork snapshots:
//
//   - a drone that approaches an obstacle and retreats, so its
//     minimum is held across snapshots before it is folded;
//   - two obstacles whose nearest one switches mid-flight;
//   - consecutive positions whose squared distances fall inside the
//     held band: a hovering drone, and drones creeping along a circle
//     round the obstacle, whose Hypot values differ by ulps in either
//     order from their squared distances;
//   - contact on the exact step: a drone landing exactly on
//     SurfaceDistance = DroneRadius, where the clearance is 0;
//   - drones starting at or inside the contact distance;
//   - a world without obstacles;
//   - default missions under a GPS-steered controller, clean and
//     spoofed, fresh and resumed;
//   - runs resumed from a snapshot taken mid-approach.
func TestDeferredClearanceMatchesEager(t *testing.T) {
	o := Obstacle{Center: vec.New(0, 0, 0), Radius: 4}
	one := World{Obstacles: []Obstacle{o}}
	cases := []struct {
		name  string
		m     *Mission
		ctrl  Controller
		crash int // obstacle collisions the eager pass must see
	}{
		{"approach then retreat", scriptedMission(one, vec.New(6.3, -20.1, 10), vec.New(-7.7, -20.1, 10)),
			fixedController{vec.New(0.1, 2, 0), vec.New(-0.05, 2, 0)}, 0},
		{"nearest obstacle switches", scriptedMission(World{Obstacles: []Obstacle{o, {Center: vec.New(2.2, 30, 0), Radius: 3}}},
			vec.New(8.1, -10, 10), vec.New(-9, -10, 10)),
			fixedController{vec.New(0, 2.5, 0), vec.New(0, 2.5, 0)}, 0},
		{"inside the band", scriptedMission(one, vec.New(7.31, 6.87, 10), vec.New(-5.93, 8.41, 10), vec.New(0, -9.5, 10)),
			circler{o.Center, 1e-7, 2}, 0},
		{"contact on the exact step", scriptedMission(one, vec.New(5.25, 0, 10), vec.New(-20, 0, 10)),
			fixedController{vec.New(-2, 0, 0), vec.Zero}, 1},
		{"starts at or inside contact", scriptedMission(one, vec.New(1, 0, 10), vec.New(0, -4.25, 10), vec.New(30, 0, 10)),
			fixedController{vec.Zero, vec.Zero, vec.New(-2, 0, 0)}, 3},
		{"no obstacles", scriptedMission(World{}, vec.New(0, 0, 10), vec.New(6, 0, 10)),
			fixedController{vec.New(1, 1, 0), vec.New(-1, 0.5, 0)}, 0},
	}
	for _, tc := range cases {
		res, hits := checkEagerClearance(t, tc.name, tc.m, RunOptions{Controller: tc.ctrl, RecordTrajectory: true})
		if len(hits) != tc.crash {
			t.Errorf("%s: eager pass sees %d obstacle collisions, want %d", tc.name, len(hits), tc.crash)
		}
		if tc.name == "contact on the exact step" && len(hits) == 1 {
			if d := o.SurfaceDistance(hits[0].Pos); d != tc.m.Config.DroneRadius || hits[0].Time != 7*tc.m.Config.Dt {
				t.Errorf("%s: collision at t=%v, surface distance %v; want t=%v on the contact distance",
					tc.name, hits[0].Time, d, 7*tc.m.Config.Dt)
			}
		}
		if tc.name == "approach then retreat" {
			resumeMidApproach(t, tc.m, tc.ctrl, res)
		}
	}

	// Default 5-drone missions under flockLike: clean recording runs,
	// then spoofed runs fresh and resumed from their fork snapshots.
	// Seeds 1 and 3 fly a drone into the obstacle.
	ctrl := flockLike{}
	for seed := uint64(1); seed <= 3; seed++ {
		m, err := NewMission(DefaultMissionConfig(5, seed))
		if err != nil {
			t.Fatal(err)
		}
		clean, _ := checkEagerClearance(t, fmt.Sprintf("seed %d clean", seed), m, RunOptions{Controller: ctrl, RecordTrajectory: true})
		for v := 0; v < 5; v += 2 {
			plan := &gps.SpoofPlan{Target: v, Start: 8 + float64(v), Duration: 15, Direction: gps.Right, Distance: 10}
			label := fmt.Sprintf("seed %d spoof %d", seed, v)
			full, _ := checkEagerClearance(t, label, m, RunOptions{Controller: ctrl, Spoof: plan})
			resumed, _ := checkEagerClearance(t, label+" resumed", m, RunOptions{Controller: ctrl, Spoof: plan, Prefix: clean.Trajectory})
			if !reflect.DeepEqual(resumed, full) || !sameFloats(resumed.MinClearance, full.MinClearance) {
				t.Fatalf("%s: resumed run %+v, full run %+v", label, resumed, full)
			}
		}
	}
}

// resumeMidApproach resumes the approach-then-retreat mission from
// each of its fork snapshots taken while drone 0 still closes on the
// obstacle, under a spoof plan that cannot act (zero distance), and
// requires the full run's result bit for bit.
func resumeMidApproach(t *testing.T, m *Mission, ctrl Controller, clean *Result) {
	t.Helper()
	full, err := Run(m, RunOptions{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	resumed := 0
	for k := 1; k < len(clean.Trajectory.forks.ncoll); k++ {
		if y := clean.Trajectory.forks.bodies[k*len(m.Start)].Pos.Y; y >= 0 {
			break // drone 0 has passed the obstacle
		}
		plan := &gps.SpoofPlan{Target: 1, Start: float64(k*forkEvery) * m.Config.Dt, Duration: 1, Direction: gps.Left}
		label := fmt.Sprintf("resumed at snapshot %d", k)
		got, _ := checkEagerClearance(t, label, m, RunOptions{Controller: ctrl, Spoof: plan, Prefix: clean.Trajectory})
		if !reflect.DeepEqual(got, full) || !sameFloats(got.MinClearance, full.MinClearance) {
			t.Fatalf("%s: result %+v, full run %+v", label, got, full)
		}
		resumed++
	}
	if resumed < 5 {
		t.Fatalf("only %d snapshots taken mid-approach", resumed)
	}
}

// flockLike steers every drone to the destination and away from the
// obstacle and its neighbours by GPS alone, enough to make a spoof
// matter, without importing the flocking package.
type flockLike struct{}

func (flockLike) Command(p Perception, nb []comms.State, w *World) vec.Vec3 {
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
	return cmd.ClampNorm(4)
}

// circler flies drones 0..n−1 round c at speed, commanding the
// tangent at each GPS fix, and holds the rest in place. At 0.1 µm/s
// a step moves a drone ~6e-9 m, whose square against a ~10 m radius
// is far below one ulp, so the radius walks by the roundings of the
// positions alone: consecutive squared distances stay well inside the
// 1e-9 band while Hypot orders the positions by ulps either way.
type circler struct {
	c     vec.Vec3
	speed float64
	n     int
}

func (cr circler) Command(p Perception, _ []comms.State, _ *World) vec.Vec3 {
	if p.ID >= cr.n {
		return vec.Zero
	}
	r := p.GPS.Position.Sub(cr.c)
	return vec.New(-r.Y, r.X, 0).Unit().Scale(cr.speed)
}

// headOn flies drone 0 east and drone 1 west at MaxSpeed, the
// rammingController's manoeuvre at the bodies' full speed.
type headOn struct{}

func (headOn) Command(p Perception, _ []comms.State, _ *World) vec.Vec3 {
	if p.ID == 0 {
		return vec.New(8, 0, 0)
	}
	return vec.New(-8, 0, 0)
}

// headOnBatch is headOn on the batch path: BatchCommands returns the
// closest broadcast pair's squared distance, as flock's kernel does,
// so the Stepper gates its drone-pair scan on it.
type headOnBatch struct{ headOn }

func (headOnBatch) NewBatchScratch(int, *World) any { return nil }

func (c headOnBatch) BatchCommands(b *comms.Broadcast, w *World, _ any, cmds []vec.Vec3) float64 {
	minD2 := math.Inf(1)
	for i := range cmds {
		cmds[i] = vec.Zero
		if !b.Active[i] {
			continue
		}
		cmds[i] = c.Command(Perception{ID: i}, nil, w)
		for j := i + 1; j < len(cmds); j++ {
			if d2 := b.Pos[j].Sub(b.Pos[i]).NormSq(); b.Active[j] && d2 < minD2 {
				minD2 = d2
			}
		}
	}
	return minD2
}

// TestPairScanGateHeadOn pins pairScanNeeded's displacement term. Two
// noise-free drones fly head-on at MaxSpeed = 8 m/s with Dt = 1/16 s,
// so each step closes their gap by 1 m against a collision threshold
// 2·DroneRadius = 0.5 m: a pair perceived up to 1.5 m apart at the
// start of a step can collide by its end. The start gaps sweep one
// whole step of phase, so the crossing step starts at every gap in
// (0.5, 1.5] in 1/16 m increments. The batch path, which gates its
// scan, must find the very collisions of the row path, which scans
// every step. A gate without the displacement term misses every
// crossing; one that counts it once, not per endpoint, misses those
// that start beyond 1 m.
func TestPairScanGateHeadOn(t *testing.T) {
	for k := 0; k < 16; k++ {
		gap := 6 + float64(k)/16
		m := scriptedMission(World{Obstacles: []Obstacle{{Center: vec.New(0, 500, 0), Radius: 4}}},
			vec.New(0, 0, 10), vec.New(gap, 0, 10))
		m.Config.MaxTime = 2
		label := fmt.Sprintf("gap %v", gap)
		row, err := Run(m, RunOptions{Controller: headOn{}})
		if err != nil {
			t.Fatal(err)
		}
		if len(row.Collisions) != 2 || row.Collisions[0].Kind != KindDrone {
			t.Fatalf("%s: row path collisions %v, want one drone pair", label, row.Collisions)
		}
		batch, err := Run(m, RunOptions{Controller: headOnBatch{}})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batch, row) {
			t.Fatalf("%s: batch path collisions %v, row path %v", label, batch.Collisions, row.Collisions)
		}
	}
}
