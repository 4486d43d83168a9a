package flock

import (
	"math"
	"testing"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

// testWorld returns a world with one obstacle north of the origin and a
// destination far north.
func testWorld() *sim.World {
	return &sim.World{
		Obstacles:   []sim.Obstacle{{Center: vec.New(0, 100, 0), Radius: 4}},
		Destination: vec.New(0, 200, 10),
		DestRadius:  8,
	}
}

func perceptionAt(pos vec.Vec3, vel vec.Vec3) sim.Perception {
	return sim.Perception{ID: 0, GPS: gps.Reading{Position: pos}, Velocity: vel}
}

func neighborAt(id int, pos vec.Vec3, vel vec.Vec3) comms.State {
	return comms.State{ID: id, Position: pos, Velocity: vel}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	mod := func(f func(*Params)) Params {
		p := DefaultParams()
		f(&p)
		return p
	}
	bad := []Params{
		mod(func(p *Params) { p.VFlock = 0 }),
		mod(func(p *Params) { p.VMax = p.VFlock / 2 }),
		mod(func(p *Params) { p.RRep = 0 }),
		mod(func(p *Params) { p.PRep = -1 }),
		mod(func(p *Params) { p.RAtt = p.RRep / 2 }),
		mod(func(p *Params) { p.PAtt = -1 }),
		mod(func(p *Params) { p.VAttMax = -1 }),
		mod(func(p *Params) { p.CFrict = -1 }),
		mod(func(p *Params) { p.RShill = 0 }),
		mod(func(p *Params) { p.VShill = -1 }),
		mod(func(p *Params) { p.KAlt = -1 }),
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
	if _, err := New(bad[0]); err == nil {
		t.Error("New accepted invalid params")
	}
}

func TestMigrationTowardDestination(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	// Far from obstacle and from everyone: pure migration northward.
	p := perceptionAt(vec.New(0, 0, 10), vec.Zero)
	cmd := c.Command(p, nil, w)
	if cmd.Y <= 0 {
		t.Errorf("command %v does not head to destination", cmd)
	}
	if math.Abs(cmd.X) > 1e-9 {
		t.Errorf("command %v has lateral drift with no disturbance", cmd)
	}
	terms := c.Terms(p, nil, w)
	if got := terms.Migration.Norm(); math.Abs(got-c.p.VFlock) > 1e-9 {
		t.Errorf("migration speed %v, want VFlock %v", got, c.p.VFlock)
	}
}

func TestMigrationStopsAtDestination(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	p := perceptionAt(w.Destination, vec.Zero)
	terms := c.Terms(p, nil, w)
	if terms.Migration != vec.Zero {
		t.Errorf("migration %v at destination, want zero", terms.Migration)
	}
}

func TestRepulsionPushesApart(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	p := perceptionAt(vec.New(0, 0, 10), vec.Zero)
	// Neighbour just east, well within RRep.
	nb := neighborAt(1, vec.New(2, 0, 10), vec.Zero)
	terms := c.Terms(p, []comms.State{nb}, w)
	if terms.Repulsion.X >= 0 {
		t.Errorf("repulsion %v does not push west away from neighbour", terms.Repulsion)
	}
	// Repulsion grows as the pair gets closer.
	closer := neighborAt(1, vec.New(1, 0, 10), vec.Zero)
	terms2 := c.Terms(p, []comms.State{closer}, w)
	if terms2.Repulsion.Norm() <= terms.Repulsion.Norm() {
		t.Error("repulsion not monotone in proximity")
	}
}

func TestNoRepulsionBeyondRadius(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	p := perceptionAt(vec.New(0, 0, 10), vec.Zero)
	nb := neighborAt(1, vec.New(c.p.RRep+1, 0, 10), vec.Zero)
	terms := c.Terms(p, []comms.State{nb}, w)
	if terms.Repulsion != vec.Zero {
		t.Errorf("repulsion %v beyond radius, want zero", terms.Repulsion)
	}
}

func TestAttractionTowardFarthest(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	p := perceptionAt(vec.New(0, 0, 10), vec.Zero)
	far := neighborAt(1, vec.New(c.p.RAtt+6, 0, 10), vec.Zero)
	near := neighborAt(2, vec.New(0, 7, 10), vec.Zero)
	terms := c.Terms(p, []comms.State{near, far}, w)
	if terms.Attraction.X <= 0 {
		t.Errorf("attraction %v does not pull east toward the farthest neighbour", terms.Attraction)
	}
	if terms.Attraction.Y < 0 {
		t.Errorf("attraction %v pulled away from the near neighbour's axis", terms.Attraction)
	}
}

func TestNoAttractionWithinRadius(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	p := perceptionAt(vec.New(0, 0, 10), vec.Zero)
	nb := neighborAt(1, vec.New(c.p.RAtt-1, 0, 10), vec.Zero)
	terms := c.Terms(p, []comms.State{nb}, w)
	if terms.Attraction != vec.Zero {
		t.Errorf("attraction %v within radius, want zero", terms.Attraction)
	}
}

func TestAttractionCapped(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	p := perceptionAt(vec.New(0, 0, 10), vec.Zero)
	nb := neighborAt(1, vec.New(500, 0, 10), vec.Zero)
	terms := c.Terms(p, []comms.State{nb}, w)
	if got := terms.Attraction.Norm(); got > c.p.VAttMax+1e-9 {
		t.Errorf("attraction %v exceeds cap %v", got, c.p.VAttMax)
	}
}

func TestFrictionAlignsVelocities(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	// Self moving north, neighbour moving east: friction pulls east
	// and brakes north.
	p := perceptionAt(vec.New(0, 0, 10), vec.New(0, 2, 0))
	nb := neighborAt(1, vec.New(5, 0, 10), vec.New(2, 0, 0))
	terms := c.Terms(p, []comms.State{nb}, w)
	if terms.Friction.X <= 0 || terms.Friction.Y >= 0 {
		t.Errorf("friction %v does not align toward neighbour velocity", terms.Friction)
	}
}

func TestObstacleAvoidanceOutward(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	// South of the obstacle, inside the shill shell, flying north.
	pos := vec.New(0, 100-4-c.p.RShill/2, 10)
	p := perceptionAt(pos, vec.New(0, 2, 0))
	terms := c.Terms(p, nil, w)
	if terms.Obstacle.Y >= 0 {
		t.Errorf("obstacle term %v does not push away (south)", terms.Obstacle)
	}
	// Outside the shell: inactive.
	farPos := vec.New(0, 100-4-c.p.RShill-1, 10)
	terms = c.Terms(perceptionAt(farPos, vec.New(0, 2, 0)), nil, w)
	if terms.Obstacle != vec.Zero {
		t.Errorf("obstacle term %v outside shell, want zero", terms.Obstacle)
	}
}

func TestObstacleAvoidanceStrongerWhenCloser(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	v := vec.New(0, 2, 0)
	near := c.Terms(perceptionAt(vec.New(0, 94, 10), v), nil, w).Obstacle.Norm()
	far := c.Terms(perceptionAt(vec.New(0, 90, 10), v), nil, w).Obstacle.Norm()
	if near <= far {
		t.Errorf("obstacle term near=%v not stronger than far=%v", near, far)
	}
}

func TestObstacleSaturatesInside(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	// Perceived inside the obstacle: gain saturates, no blow-up.
	inside := c.Terms(perceptionAt(vec.New(0, 100, 10), vec.Zero), nil, w).Obstacle
	if !inside.IsFinite() {
		t.Errorf("obstacle term inside cylinder not finite: %v", inside)
	}
	if inside == vec.Zero {
		t.Error("obstacle term inside cylinder is zero")
	}
}

func TestOnAxisFallback(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	// Exactly on the obstacle axis: outward normal undefined; the
	// fallback pushes opposite to migration.
	p := perceptionAt(vec.New(0, 100, 10), vec.New(0, 2, 0))
	terms := c.Terms(p, nil, w)
	if terms.Obstacle.Y >= 0 {
		t.Errorf("on-axis fallback %v does not push back", terms.Obstacle)
	}
}

func TestAltitudeHold(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	low := c.Terms(perceptionAt(vec.New(0, 0, 5), vec.Zero), nil, w)
	if low.Altitude.Z <= 0 {
		t.Errorf("altitude term %v does not climb", low.Altitude)
	}
	high := c.Terms(perceptionAt(vec.New(0, 0, 15), vec.Zero), nil, w)
	if high.Altitude.Z >= 0 {
		t.Errorf("altitude term %v does not descend", high.Altitude)
	}
}

func TestCommandSpeedCapped(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	// Pile several extreme influences together.
	p := perceptionAt(vec.New(0, 95, 0), vec.New(0, 4, 0))
	nbs := []comms.State{
		neighborAt(1, vec.New(0.5, 95, 0), vec.New(4, 0, 0)),
		neighborAt(2, vec.New(-60, 95, 0), vec.Zero),
	}
	cmd := c.Command(p, nbs, w)
	if got := cmd.Norm(); got > c.p.VMax+1e-9 {
		t.Errorf("command speed %v exceeds VMax %v", got, c.p.VMax)
	}
}

func TestCoincidentNeighborIgnored(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	pos := vec.New(0, 0, 10)
	p := perceptionAt(pos, vec.Zero)
	nb := neighborAt(1, pos, vec.New(1, 0, 0)) // exactly coincident fix
	cmd := c.Command(p, []comms.State{nb}, w)
	if !cmd.IsFinite() {
		t.Errorf("coincident neighbour produced non-finite command %v", cmd)
	}
}

func TestSpoofedNeighborShiftsCommand(t *testing.T) {
	// The SPV premise: displacing one broadcast position changes the
	// receiver's command.
	c := mustNew(DefaultParams())
	w := testWorld()
	p := perceptionAt(vec.New(0, 0, 10), vec.Zero)
	// A 10 m broadcast displacement brings the neighbour from outside
	// the repulsion radius to well inside it.
	true1 := neighborAt(1, vec.New(13, 0, 10), vec.Zero)
	spoof1 := neighborAt(1, vec.New(3, 0, 10), vec.Zero)
	base := c.Command(p, []comms.State{true1}, w)
	spoofed := c.Command(p, []comms.State{spoof1}, w)
	if base.Sub(spoofed).Norm() < 1e-6 {
		t.Error("spoofed broadcast did not change the command")
	}
}

// TestTermsSumMatchesCommandRandomized is the property behind the
// flight log's forensic term decomposition: for ANY perception and
// neighbourhood, the recorded terms must reassemble into exactly the
// command the controller issued — Terms(...).Sum().ClampNorm(VMax) ==
// Command(...). Randomized inputs sweep positions around the obstacle
// shell, the destination, and dense neighbourhoods.
func TestTermsSumMatchesCommandRandomized(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	src := rng.New(7)
	for trial := 0; trial < 500; trial++ {
		pos := vec.New(src.Uniform(-30, 30), src.Uniform(-20, 220), src.Uniform(0, 20))
		vel := vec.New(src.Uniform(-4, 4), src.Uniform(-4, 4), src.Uniform(-2, 2))
		p := perceptionAt(pos, vel)
		nbs := make([]comms.State, src.Intn(6))
		for i := range nbs {
			nbs[i] = neighborAt(i+1,
				pos.Add(vec.New(src.Uniform(-40, 40), src.Uniform(-40, 40), src.Uniform(-5, 5))),
				vec.New(src.Uniform(-4, 4), src.Uniform(-4, 4), src.Uniform(-2, 2)))
		}
		sum := c.Terms(p, nbs, w).Sum().ClampNorm(c.p.VMax)
		cmd := c.Command(p, nbs, w)
		if sum.Dist(cmd) > 1e-9 {
			t.Fatalf("trial %d: Terms().Sum() clamp %v != Command %v (pos %v, %d neighbours)",
				trial, sum, cmd, pos, len(nbs))
		}
	}
}

func TestTermsSumMatchesCommand(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	p := perceptionAt(vec.New(3, 90, 9), vec.New(1, 1, 0))
	nbs := []comms.State{
		neighborAt(1, vec.New(7, 92, 10), vec.New(0, 2, 0)),
		neighborAt(2, vec.New(-20, 80, 10), vec.New(0, 2, 0)),
	}
	sum := c.Terms(p, nbs, w).Sum().ClampNorm(c.p.VMax)
	cmd := c.Command(p, nbs, w)
	if sum.Dist(cmd) > 1e-12 {
		t.Errorf("Terms().Sum() clamp %v != Command %v", sum, cmd)
	}
}

// mustNew is New for parameters known to be valid.
func mustNew(p Params) *Controller {
	c, err := New(p)
	if err != nil {
		panic(err)
	}
	return c
}
