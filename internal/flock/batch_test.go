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

// batchFixture builds a random broadcast layout plus the exact scalar
// equivalents: per-receiver Perception and PerfectBus-ordered neighbour
// rows (every active j ≠ i, ascending). Positions cluster tightly
// enough that repulsion, attraction, friction and obstacle terms all
// fire across the trials, some drones are parked crashed or
// coincident to hit the skip paths, and in larger swarms a few sit at
// the destination, on both sides of the migration cut-off.
type batchFixture struct {
	bc  comms.Broadcast
	per []sim.Perception
	nbr [][]comms.State
}

func makeBatchFixture(src *rng.Source, n int, w *sim.World) *batchFixture {
	f := &batchFixture{
		bc: comms.Broadcast{
			Pos:    make([]vec.Vec3, n),
			Vel:    make([]vec.Vec3, n),
			Active: make([]bool, n),
			Time:   src.Uniform(0, 100),
		},
	}
	pos := make([]vec.Vec3, n)
	vel := make([]vec.Vec3, n)
	for i := 0; i < n; i++ {
		// Spread some drones near the obstacle so shill terms fire, and
		// keep the cluster tight enough for repulsion/friction.
		pos[i] = vec.New(src.Uniform(-6, 6), src.Uniform(85, 115), src.Uniform(8, 12))
		vel[i] = vec.New(src.Uniform(-4, 4), src.Uniform(-4, 4), src.Uniform(-1, 1))
		f.bc.Active[i] = src.Uniform(0, 1) > 0.15
	}
	if n >= 2 {
		pos[n-1] = pos[0] // coincident pair: dist == 0 skip path
	}
	// One drone far out so the attraction term (farthest beyond RAtt)
	// fires for most receivers.
	if n >= 3 {
		pos[n-2] = vec.New(src.Uniform(30, 60), src.Uniform(40, 70), 10)
	}
	// Receivers at the destination, where the migration term switches
	// off: on it, inside DestRadius/2, and on the x axis through it at
	// DestRadius/2 and 1 ulp either side, where the horizontal norm is
	// exact (testWorld's destination has x = 0, so the offset is too).
	if n >= 8 {
		d, r := w.Destination, w.DestRadius/2
		side := 1.0
		if src.Uniform(0, 1) < 0.5 {
			side = -1
		}
		for k, x := range []float64{
			0, src.Uniform(-r/2, r/2), r, math.Nextafter(r, 0), math.Nextafter(r, math.Inf(1)),
		} {
			pos[1+k] = vec.New(d.X+side*x, d.Y, src.Uniform(8, 12))
			f.bc.Active[1+k] = true
		}
	}
	copy(f.bc.Pos, pos)
	copy(f.bc.Vel, vel)
	f.buildRows()
	return f
}

// buildRows derives the scalar Perceptions and neighbour rows from the
// broadcast columns.
func (f *batchFixture) buildRows() {
	n := f.bc.N()
	f.per = make([]sim.Perception, n)
	f.nbr = make([][]comms.State, n)
	for i := 0; i < n; i++ {
		if !f.bc.Active[i] {
			continue
		}
		f.per[i] = sim.Perception{
			ID:       i,
			GPS:      gps.Reading{Position: f.bc.Pos[i], Time: f.bc.Time},
			Velocity: f.bc.Vel[i],
			Time:     f.bc.Time,
		}
		for j := 0; j < n; j++ {
			if j == i || !f.bc.Active[j] {
				continue
			}
			f.nbr[i] = append(f.nbr[i], comms.State{
				ID: j, Position: f.bc.Pos[j], Velocity: f.bc.Vel[j], Time: f.bc.Time,
			})
		}
	}
}

// shillBoundary returns receiver positions on both sides of w's first
// obstacle's RShill+Radius boundary, where Terms' exact shill test
// flips, and of the padded bound at which finishSoA's SurfaceBeyond
// gate flips, each stepped ±1..3 ulps in x: along the x axis from the
// centre, where SurfaceDistance is exact, and along two diagonals. A
// ring 2e-10 relative inside the boundary, where the shill term is
// still large enough to move the command's bits, catches a gate padded
// the wrong way.
func shillBoundary(c *Controller, w *sim.World) []vec.Vec3 {
	o := w.Obstacles[0]
	edge := c.Params().RShill + o.Radius
	gate := math.Sqrt(vec.PaddedSq(edge, 1e-9))
	var out []vec.Vec3
	for _, rho := range []float64{edge, gate, edge * (1 - 2e-10)} {
		for _, dir := range [][2]float64{{1, 0}, {0.6, 0.8}, {-0.8, -0.6}} {
			x, y := rho*dir[0], rho*dir[1]
			for k := -3; k <= 3; k++ {
				xk := x
				for s := k; s != 0; {
					if s > 0 {
						xk, s = math.Nextafter(xk, math.Inf(1)), s-1
					} else {
						xk, s = math.Nextafter(xk, math.Inf(-1)), s+1
					}
				}
				out = append(out, vec.New(o.Center.X+xk, o.Center.Y+y, 10))
			}
		}
	}
	return out
}

func sameBits(a, b vec.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// TestBatchCommandsMatchesCommand pins the bit-identity contract of the
// SoA path: for random layouts — obstacle proximity, crashed drones,
// coincident fixes, far stragglers, receivers at the destination —
// BatchCommands writes, per active drone, exactly the bits Command
// returns for the PerfectBus neighbour row, and zeroes for inactive
// drones. After the random layouts, one receiver per layout sits on
// either side of the shill boundary or of the kernel's padded shill
// gate (shillBoundary).
func TestBatchCommandsMatchesCommand(t *testing.T) {
	c := MustNew(DefaultParams())
	w := testWorld()
	src := rng.New(17)
	check := func(trial int, f *batchFixture) {
		t.Helper()
		n := f.bc.N()
		cmds := make([]vec.Vec3, n)
		c.BatchCommands(&f.bc, w, c.NewBatchScratch(n), cmds)
		for i := 0; i < n; i++ {
			var want vec.Vec3
			if f.bc.Active[i] {
				want = c.Command(f.per[i], f.nbr[i], w)
			}
			if got := cmds[i]; !sameBits(got, want) {
				t.Fatalf("trial %d drone %d at %#v (active=%v): batch %#v, scalar %#v",
					trial, i, f.bc.Pos[i], f.bc.Active[i], got, want)
			}
		}
	}
	for trial := 0; trial < 40; trial++ {
		n := 2 + int(src.Uniform(0, 60))
		check(trial, makeBatchFixture(src, n, w))
	}
	for k, p := range shillBoundary(c, w) {
		f := makeBatchFixture(src, 2+int(src.Uniform(0, 8)), w)
		f.bc.Pos[0], f.bc.Active[0] = p, true
		f.buildRows()
		check(40+k, f)
	}
}

// TestBatchCommandsZeroAlloc pins that the SoA command pass allocates
// nothing: the whole point of the batch path is to skip the per-tick
// State materialisation.
func TestBatchCommandsZeroAlloc(t *testing.T) {
	c := MustNew(DefaultParams())
	w := testWorld()
	src := rng.New(9)
	f := makeBatchFixture(src, 50, w)
	cmds := make([]vec.Vec3, 50)
	sc := c.NewBatchScratch(50)
	allocs := testing.AllocsPerRun(20, func() {
		c.BatchCommands(&f.bc, w, sc, cmds)
	})
	if allocs != 0 {
		t.Errorf("BatchCommands allocates %v objects/op, want 0", allocs)
	}
}
