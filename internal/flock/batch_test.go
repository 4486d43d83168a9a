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
// flips, and of the padded bound at which finishSoA's shill
// gate flips, each stepped ±1..3 ulps in x: along the x axis from the
// centre, where SurfaceDistance is exact, and along two diagonals. A
// ring 2e-10 relative inside the boundary, where the shill term is
// still large enough to move the command's bits, catches a gate padded
// the wrong way.
func shillBoundary(c *Controller, w *sim.World) []vec.Vec3 {
	o := w.Obstacles[0]
	edge := c.p.RShill + o.Radius
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
// gate (shillBoundary). Last, pairs sit at radii whose gates are NaN or
// ordered RRep > RFrict.
func TestBatchCommandsMatchesCommand(t *testing.T) {
	c := mustNew(DefaultParams())
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

	// Radius gates at the edges of the kernel's proof. A radius r
	// below 2^-500 is outside vec.PaddedSq's range, where r² would be
	// subnormal: 4.5·2^-537 squares to 20.25·2^-1074, which rounds
	// down to 20·2^-1074, so a gate squared without the guard drops a
	// pair at d2 = 20·2^-1074 (dist ≈ 4.47·2^-537 < r). Its NaN bound
	// must send the pair to the exact branches instead: for RFrict
	// (repulsion and friction both dropped), for RRep and, with r =
	// 4.45·2^-537, whose square rounds up to 20·2^-1074, for RAtt's
	// cohesion gate. The tiny-radius pairs sit at the destination of a
	// world whose destination is the origin, so their tiny offsets
	// survive, with equal velocities, where the command is their tiny
	// terms alone. Last, RRep above RFrict must still repel pairs
	// between the two.
	atDest := &sim.World{Obstacles: w.Obstacles, Destination: vec.New(0, 0, 10), DestRadius: w.DestRadius}
	tiny, tinier := 4.5*0x1p-537, 4.45*0x1p-537
	rel := vec.New(4*0x1p-537, 2*0x1p-537, 0) // NormSq is 20·2^-1074 exactly
	for k, tc := range []struct {
		rrep, ratt, rfrict float64
		pos, rel           vec.Vec3
		vel                float64
	}{
		{5, 28, tiny, vec.New(0, 0, 10), rel, 1},
		{tiny, tiny, 20, atDest.Destination, rel, 0},
		{tinier, tinier, 20, atDest.Destination, rel, 0},
		{10, 28, 5, vec.New(0, 0, 10), vec.New(7, 0, 0), 1},
	} {
		p := DefaultParams()
		p.RRep, p.RAtt, p.RFrict = tc.rrep, tc.ratt, tc.rfrict
		f := &batchFixture{bc: comms.Broadcast{
			Pos:    []vec.Vec3{tc.pos, tc.pos.Add(tc.rel)},
			Vel:    []vec.Vec3{vec.New(1, -2, 0.5).Scale(tc.vel), vec.New(-3, 1, 0).Scale(tc.vel)},
			Active: []bool{true, true},
		}}
		f.buildRows()
		checkBatch(t, mustNew(p), atDest, fmt.Sprintf("radius gate %d", k), f)
	}
}

// checkBatch runs BatchCommands on f's broadcast and fails unless every
// active drone's command has exactly the bits Command returns for its
// PerfectBus neighbour row, and every inactive drone's is zero.
func checkBatch(t *testing.T, c *Controller, w *sim.World, label string, f *batchFixture) {
	t.Helper()
	n := f.bc.N()
	cmds := make([]vec.Vec3, n)
	c.BatchCommands(&f.bc, w, c.NewBatchScratch(n, w), cmds)
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
// Each neighbour list runs through checkArrivals.
func TestBatchFarthestNeighbourTies(t *testing.T) {
	// The default controller sees the direction of every neighbour
	// beyond RAtt = 28 m; one with RRep = RAtt = 1e-200 sees it for the
	// subnormal d2 too, whose roots are at least 2e-162.
	tiny := DefaultParams()
	tiny.RRep, tiny.RAtt = 1e-200, 1e-200
	ctrls := []*Controller{mustNew(DefaultParams()), mustNew(tiny)}
	if ctrls[0].p.RAtt >= 29 {
		t.Fatalf("RAtt %v: the layouts below need neighbours beyond it", ctrls[0].p.RAtt)
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
		checkArrivals(t, ctrls, w, fmt.Sprintf("layout %d", li), nbs, nil)
	}
}

// checkArrivals runs a receiver at the origin against the neighbours
// at nbs, in both arrival orders and with the receiver inserted at
// every index, so neighbours reach it from the row side (i < r) and
// the column side (r < j) of the triangle sweep and mixed. Neighbour k
// of nbs flies at vel[k] (zero when vel is nil) and the receiver at
// rest. Every drone's sums and command must match Terms and Command
// bit for bit under every controller.
func checkArrivals(t *testing.T, ctrls []*Controller, w *sim.World, label string, nbs, vel []vec.Vec3) {
	t.Helper()
	if vel == nil {
		vel = make([]vec.Vec3, len(nbs))
	}
	for _, rev := range []bool{false, true} {
		order, vels := slices.Clone(nbs), slices.Clone(vel)
		if rev {
			slices.Reverse(order)
			slices.Reverse(vels)
		}
		for r := 0; r <= len(order); r++ {
			pos := slices.Insert(slices.Clone(order), r, vec.Zero)
			n := len(pos)
			f := &batchFixture{bc: comms.Broadcast{
				Pos: pos, Vel: slices.Insert(slices.Clone(vels), r, vec.Zero), Active: make([]bool, n),
			}}
			for i := range f.bc.Active {
				f.bc.Active[i] = true
			}
			f.buildRows()
			for ci, c := range ctrls {
				checkPairSums(t, c, w, fmt.Sprintf("controller %d %s reversed=%v receiver at %d",
					ci, label, rev, r), f)
			}
		}
	}
}

// checkPairSums runs BatchCommands on f's broadcast and fails unless
// every active drone's repulsion sum and friction term have exactly
// the bits Terms computes for its PerfectBus row, signed zeros
// included; then it checks the commands with checkBatch.
func checkPairSums(t *testing.T, c *Controller, w *sim.World, label string, f *batchFixture) {
	t.Helper()
	n := f.bc.N()
	sc := c.NewBatchScratch(n, w).(*soaScratch)
	c.BatchCommands(&f.bc, w, sc, make([]vec.Vec3, n))
	for i := 0; i < n; i++ {
		if !f.bc.Active[i] {
			continue
		}
		want := c.Terms(f.per[i], f.nbr[i], w)
		a := &sc.acc[i]
		var frict vec.Vec3
		if a.frictCnt > 0 {
			frict = a.frictSum.Scale(sc.frictGain[a.frictCnt])
		}
		if !sameBits(a.rep, want.Repulsion) || !sameBits(frict, want.Friction) {
			t.Fatalf("%s drone %d: batch repulsion %#v friction %#v, Terms %#v %#v",
				label, i, a.rep, frict, want.Repulsion, want.Friction)
		}
	}
	checkBatch(t, c, w, label, f)
}

// TestBatchPairSharing pins the pair sweep's shared work against
// per-drone Terms and Command, bit for bit with signed zeros compared
// through math.Float64bits: each difference taken once and subtracted
// from the second endpoint's sums, the farthest-neighbour test run only
// on pairs past the cohesion bound attLo, and the coincident-fix skip
// inside the near-pair block. It covers
//
//   - coplanar swarms on a coarse grid whose velocities share
//     components, so position and velocity differences are exactly ±0
//     on repulsion and friction pairs, and many fixes coincide;
//   - swarms wider than RAtt;
//   - neighbours at attLo and ±1 ulp around it, beside one whose root
//     is the least above RAtt, in every arrival order;
//   - RRep = RAtt = 2^-600, whose squares are outside vec.PaddedSq's
//     range, so attLo is NaN and every pair must be tracked;
//   - explicit coincident fixes beside near and far neighbours.
func TestBatchPairSharing(t *testing.T) {
	tiny := DefaultParams()
	tiny.RRep, tiny.RAtt = 0x1p-600, 0x1p-600
	ctrls := []*Controller{mustNew(DefaultParams()), mustNew(tiny)}
	if !math.IsNaN(ctrls[1].bnd.attLo) {
		t.Fatalf("attLo %v for RAtt 2^-600, want NaN", ctrls[1].bnd.attLo)
	}
	w := testWorld()
	src := rng.New(27)
	pick := func(vals ...float64) float64 { return vals[int(src.Uniform(0, float64(len(vals))))] }
	for trial := 0; trial < 60; trial++ {
		n := 2 + int(src.Uniform(0, 24))
		// Even trials pack the swarm inside RFrict, odd ones spread it
		// past RAtt.
		step := 1.5
		if trial%2 == 1 {
			step = 9.5
		}
		f := &batchFixture{bc: comms.Broadcast{
			Pos: make([]vec.Vec3, n), Vel: make([]vec.Vec3, n), Active: make([]bool, n),
		}}
		for i := 0; i < n; i++ {
			f.bc.Pos[i] = vec.New(step*pick(-2, -1, 0, 1, 2), 100+step*pick(-2, -1, 0, 1, 2), 10)
			f.bc.Vel[i] = vec.New(pick(-1, 0, 0.5, 2), pick(0, 1.5), 0.25)
			f.bc.Active[i] = src.Uniform(0, 1) > 0.1
		}
		f.buildRows()
		for ci, c := range ctrls {
			checkPairSums(t, c, w, fmt.Sprintf("controller %d grid trial %d", ci, trial), f)
		}
	}

	attLo := ctrls[0].bnd.attLo
	ratt := ctrls[0].p.RAtt
	beyond := ratt * ratt
	for math.Sqrt(beyond) <= ratt {
		beyond = stepULPs(beyond, 1)
	}
	if !(math.Sqrt(attLo) < ratt) || !(attLo < ratt*ratt) {
		t.Fatalf("attLo %v does not prove a root below RAtt %v", attLo, ratt)
	}
	vel := []vec.Vec3{vec.New(1, 0, 0), vec.New(1, -0.5, 0), vec.New(0, 0, 0.25)}
	for k := -1; k <= 1; k++ {
		at := relWithD2(t, stepULPs(attLo, k), 0.6, 0.8)
		checkArrivals(t, ctrls, w, fmt.Sprintf("attLo%+d ulp", k),
			[]vec.Vec3{at, relWithD2(t, beyond, -0.8, 0.6), vec.New(3, 0, 0)}, vel)
		checkArrivals(t, ctrls, w, fmt.Sprintf("attLo%+d ulp alone", k),
			[]vec.Vec3{at, vec.New(0, 4, 0)}, vel[:2])
	}
	checkArrivals(t, ctrls, w, "coincident fixes",
		[]vec.Vec3{vec.Zero, vec.New(2, 0, 0), vec.Zero, relWithD2(t, beyond, 0, 1)}, []vec.Vec3{
			vec.New(1, 0, 0), vec.New(0, -1, 0), vec.New(1, 0.5, 0), vec.New(0, 0, 1),
		})
}

// TestBatchCommandsZeroAlloc pins that the SoA command pass allocates
// nothing: the whole point of the batch path is to skip the per-tick
// State materialisation.
func TestBatchCommandsZeroAlloc(t *testing.T) {
	c := mustNew(DefaultParams())
	w := testWorld()
	src := rng.New(9)
	f := makeBatchFixture(src, 50, w)
	cmds := make([]vec.Vec3, 50)
	sc := c.NewBatchScratch(50, w)
	allocs := testing.AllocsPerRun(20, func() {
		c.BatchCommands(&f.bc, w, sc, cmds)
	})
	if allocs != 0 {
		t.Errorf("BatchCommands allocates %v objects/op, want 0", allocs)
	}
}
