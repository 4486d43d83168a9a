package flock

import (
	"fmt"
	"math"
	"slices"
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
				out = append(out, vec.New(o.Center.X+stepULPs(x, k), o.Center.Y+y, 10))
			}
		}
	}
	return out
}

// stepULPs returns x moved k ulps up (k > 0) or down (k < 0).
func stepULPs(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
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
	for trial := 0; trial < 40; trial++ {
		n := 2 + int(src.Uniform(0, 60))
		checkBatch(t, c, w, fmt.Sprintf("trial %d", trial), makeBatchFixture(src, n, w))
	}
	for k, p := range shillBoundary(c, w) {
		f := makeBatchFixture(src, 2+int(src.Uniform(0, 8)), w)
		f.bc.Pos[0], f.bc.Active[0] = p, true
		f.buildRows()
		checkBatch(t, c, w, fmt.Sprintf("shill boundary %d", k), f)
	}
}

// checkBatch runs BatchCommands on f's broadcast and fails unless every
// active drone's command has exactly the bits Command returns for its
// PerfectBus neighbour row, and every inactive drone's is zero.
func checkBatch(t *testing.T, c *Controller, w *sim.World, label string, f *batchFixture) {
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
			t.Fatalf("%s drone %d at %#v (active=%v): batch %#v, scalar %#v",
				label, i, f.bc.Pos[i], f.bc.Active[i], got, want)
		}
	}
}

// relWithD2 returns a horizontal-ish vector near direction (dx, dy, 0)
// whose NormSq is exactly d2: the x and y components land just inside
// the target and a small z component makes up the rest.
func relWithD2(t *testing.T, d2, dx, dy float64) vec.Vec3 {
	t.Helper()
	r := math.Sqrt(d2) * (1 - 1e-9) / math.Hypot(dx, dy)
	v := vec.New(dx*r, dy*r, 0)
	v.Z = math.Sqrt(d2 - v.NormSq())
	for k := 0; k < 8 && v.NormSq() != d2; k++ {
		if v.NormSq() < d2 {
			v.Z = math.Nextafter(v.Z, math.Inf(1))
		} else {
			v.Z = math.Nextafter(v.Z, 0)
		}
	}
	if v.NormSq() != d2 {
		t.Fatalf("no vector near (%v, %v) with squared norm %v", dx, dy, d2)
	}
	return v
}

// TestBatchFarthestNeighbourTies pins the kernel's farthest-neighbour
// gate (soaAcc.farther) at the edges of its proof. A receiver at the
// origin sees its neighbours at exactly constructed squared distances
// d2, most beyond RAtt, where the chosen neighbour's direction reaches
// the command:
//
//   - ties: d2 values 1–3 ulps apart whose rounded roots agree, where
//     Terms keeps the first arrival, so only the exact band decides;
//   - the padded gate farHi = d2·(1+1e-9) of the first neighbour, with
//     a second at farHi and 1 ulp either side;
//   - subnormal d2 (including a farHi that rounds back to farD2), zero
//     d2 (a coincident fix, and components whose squares underflow),
//     and stragglers at d2 = +Inf.
//
// Each neighbour list runs in both arrival orders, and the receiver is
// inserted at every index, so neighbours reach it from the row side
// (i < r) and the column side (r < j) of the triangle sweep and mixed.
// Every drone's command must match Command bit for bit.
func TestBatchFarthestNeighbourTies(t *testing.T) {
	// The default controller sees the direction of every neighbour
	// beyond RAtt = 28 m; one with RRep = RAtt = 1e-200 sees it for the
	// subnormal d2 too, whose roots are at least 2e-162.
	tiny := DefaultParams()
	tiny.RRep, tiny.RAtt = 1e-200, 1e-200
	ctrls := []*Controller{MustNew(DefaultParams()), MustNew(tiny)}
	if ctrls[0].Params().RAtt >= 29 {
		t.Fatalf("RAtt %v: the layouts below need neighbours beyond it", ctrls[0].Params().RAtt)
	}
	w := testWorld()
	var layouts [][]vec.Vec3
	ties := 0
	for _, root := range []float64{30, 30.1, 35.7, 41.3, 45.2} {
		// base is the least d2 whose rounded root is root, so the next
		// few d2 values up share it (sqrt(fl(root²)) = root).
		base := root * root
		for math.Sqrt(stepULPs(base, -1)) == root {
			base = stepULPs(base, -1)
		}
		a := relWithD2(t, base, 1, 0)
		for k := 1; k <= 3; k++ {
			d2 := stepULPs(base, k)
			if math.Sqrt(d2) != math.Sqrt(base) {
				continue
			}
			ties++
			layouts = append(layouts, []vec.Vec3{a, relWithD2(t, d2, 0.6, 0.8)})
		}
		hi := base * (1 + 1e-9)
		for k := -1; k <= 1; k++ {
			layouts = append(layouts, []vec.Vec3{a, relWithD2(t, stepULPs(hi, k), -0.8, 0.6)})
		}
	}
	if ties < 5 {
		t.Fatalf("only %d root ties among the layouts, want at least 5", ties)
	}
	far := relWithD2(t, 950.25, 0, -1)
	// d2 = m²·2^-1074 exactly. For m = 2 the padded gate rounds back to
	// farD2 itself, so an equal d2 in another direction must not pass.
	sub := func(m float64) vec.Vec3 { return vec.New(m*0x1p-537, 0, 0) }
	subY := func(m float64) vec.Vec3 { return vec.New(0, m*0x1p-537, 0) }
	layouts = append(layouts,
		[]vec.Vec3{sub(2), sub(3), far},
		[]vec.Vec3{sub(2), subY(2)},
		[]vec.Vec3{sub(0x1p25), subY(0x1p25), sub(0x1p25 + 1), sub(5)},
		[]vec.Vec3{vec.Zero, vec.New(1e-170, 0, -1e-170), far},
		[]vec.Vec3{far, vec.New(1e200, 0, 0), vec.New(0, -1e200, 0)},
		[]vec.Vec3{vec.New(1e200, 0, 0), far},
	)

	for li, nbs := range layouts {
		for _, rev := range []bool{false, true} {
			order := slices.Clone(nbs)
			if rev {
				slices.Reverse(order)
			}
			for r := 0; r <= len(order); r++ {
				pos := slices.Insert(slices.Clone(order), r, vec.Zero)
				n := len(pos)
				f := &batchFixture{bc: comms.Broadcast{
					Pos: pos, Vel: make([]vec.Vec3, n), Active: make([]bool, n),
				}}
				for i := range f.bc.Active {
					f.bc.Active[i] = true
				}
				f.buildRows()
				for ci, c := range ctrls {
					checkBatch(t, c, w, fmt.Sprintf("controller %d layout %d reversed=%v receiver at %d",
						ci, li, rev, r), f)
				}
			}
		}
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
