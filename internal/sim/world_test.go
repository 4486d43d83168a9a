package sim

import (
	"math"
	"testing"

	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/vec"
)

func TestObstacleSurfaceDistance(t *testing.T) {
	o := Obstacle{Center: vec.New(10, 0, 0), Radius: 4}
	cases := []struct {
		p    vec.Vec3
		want float64
	}{
		{vec.New(0, 0, 0), 6},
		{vec.New(10, 0, 50), -4}, // on axis, altitude ignored
		{vec.New(14, 0, 0), 0},
		{vec.New(10, 5, 7), 1},
	}
	for _, c := range cases {
		if got := o.SurfaceDistance(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("SurfaceDistance(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestObstacleOutwardNormal(t *testing.T) {
	o := Obstacle{Center: vec.New(0, 0, 0), Radius: 2}
	n := o.OutwardNormal(vec.New(5, 0, 9))
	if !n.ApproxEqual(vec.New(1, 0, 0), 1e-9) {
		t.Errorf("OutwardNormal = %v, want (1,0,0)", n)
	}
	if got := o.OutwardNormal(vec.New(0, 0, 3)); got != vec.Zero {
		t.Errorf("on-axis normal = %v, want zero", got)
	}
}

func TestNearestObstacle(t *testing.T) {
	w := &World{
		Obstacles: []Obstacle{
			{Center: vec.New(0, 10, 0), Radius: 2},
			{Center: vec.New(0, 30, 0), Radius: 5},
		},
		DestRadius: 1,
	}
	i, d := w.NearestObstacle(vec.New(0, 0, 0))
	if i != 0 || math.Abs(d-8) > 1e-9 {
		t.Errorf("NearestObstacle = %d,%v, want 0,8", i, d)
	}
	i, d = w.NearestObstacle(vec.New(0, 28, 0))
	if i != 1 || math.Abs(d+3) > 1e-9 {
		t.Errorf("NearestObstacle = %d,%v, want 1,-3 (inside)", i, d)
	}
}

func TestNearestObstacleEmpty(t *testing.T) {
	w := &World{DestRadius: 1}
	i, d := w.NearestObstacle(vec.Zero)
	if i != -1 || !math.IsInf(d, 1) {
		t.Errorf("empty world NearestObstacle = %d,%v", i, d)
	}
}

// ulpsFrom returns x stepped k ulps up (k > 0) or down (k < 0).
func ulpsFrom(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// ringAround returns points at horizontal distance rho from c, each
// stepped −3..+3 ulps in x: along ±x, where the distance is exact, and
// along two diagonals.
func ringAround(c vec.Vec3, rho float64) []vec.Vec3 {
	var out []vec.Vec3
	for _, dir := range [][2]float64{{1, 0}, {-1, 0}, {0.6, 0.8}, {-0.8, -0.6}} {
		x, y := c.X+rho*dir[0], c.Y+rho*dir[1]
		for k := -3; k <= 3; k++ {
			out = append(out, vec.New(ulpsFrom(x, k), y, 10))
		}
	}
	return out
}

// TestObstacleGatesMatchExact holds both square-root-free obstacle
// gates to the exact computation they stand in for, on positions on
// both sides of the exact boundary and of the padded bound, down to
// ±1 ulp, and on random positions:
//
//   - the shill gate, SurfaceBeyond(p, r), must imply
//     SurfaceDistance(p) ≥ r (flock skips the obstacle exactly then);
//   - the clearance gate, clearanceHolds, must imply that the exact
//     pass's clearance neither undercuts MinClearance nor collides.
//
// Each gate must also fire just past its bound and never on the exact
// boundary, so neither check holds vacuously.
func TestObstacleGatesMatchExact(t *testing.T) {
	obstacles := []Obstacle{
		{Center: vec.New(0, 100, 0), Radius: 4},
		{Center: vec.New(-3.7, 41.2, 9), Radius: 2.5},
	}
	// 12 is flock.DefaultParams().RShill, the radius finishSoA uses.
	for _, o := range obstacles {
		for _, r := range []float64{12, 0.5, 0, 30} {
			edge := r + o.Radius
			gate := math.Sqrt(vec.PaddedSq(edge, 1e-9))
			for _, p := range ringAround(o.Center, edge) {
				if o.SurfaceBeyond(p, r) {
					t.Errorf("shill gate fires on the boundary: r=%v p=%#v", r, p)
				}
			}
			for _, p := range ringAround(o.Center, gate) {
				if o.SurfaceBeyond(p, r) && !(o.SurfaceDistance(p) >= r) {
					t.Errorf("shill gate: r=%v p=%#v proven beyond, exact %v", r, p, o.SurfaceDistance(p))
				}
			}
			if p := o.Center.Add(vec.New(gate*(1+1e-12), 0, 0)); !o.SurfaceBeyond(p, r) {
				t.Errorf("shill gate never fires: r=%v p=%#v", r, p)
			}
		}
	}

	w := &World{Obstacles: obstacles, DestRadius: 1}
	const dr = 0.25 // DefaultMissionConfig().DroneRadius
	// exactHolds is the exact pass's verdict: no new minimum, no hit.
	exactHolds := func(p vec.Vec3, mc float64) bool {
		oi, d := w.NearestObstacle(p)
		clear := d - dr
		return !(clear < mc) && !(oi >= 0 && clear <= 0)
	}
	for _, o := range obstacles {
		for _, mc := range []float64{3, 0.25, 17.5, 1e-7} {
			edge := mc + dr + o.Radius
			gate := math.Sqrt(vec.PaddedSq(edge, 1e-9))
			for _, p := range ringAround(o.Center, edge) {
				if clearanceHolds(w, p, mc, dr) {
					t.Errorf("clearance gate fires on the boundary: mc=%v p=%#v", mc, p)
				}
			}
			for _, p := range ringAround(o.Center, gate) {
				if clearanceHolds(w, p, mc, dr) && !exactHolds(p, mc) {
					t.Errorf("clearance gate: mc=%v p=%#v proven clear, exact pass disagrees", mc, p)
				}
			}
		}
	}
	if p := vec.New(0, 100-math.Sqrt(vec.PaddedSq(3+dr+4, 1e-9))*(1+1e-12), 0); !clearanceHolds(w, p, 3, dr) {
		t.Errorf("clearance gate never fires at %#v", p)
	}
	for _, mc := range []float64{0, math.Copysign(0, -1), -1, math.NaN()} {
		if clearanceHolds(w, vec.New(500, 500, 0), mc, dr) {
			t.Errorf("clearance gate fires for MinClearance %v", mc)
		}
	}
	if clearanceHolds(w, vec.New(math.NaN(), 0, 0), 1, dr) {
		t.Error("clearance gate fires for a NaN position")
	}
	if !clearanceHolds(&World{DestRadius: 1}, vec.Zero, math.Inf(1), dr) {
		t.Error("clearance gate fails in a world without obstacles")
	}

	src := rng.Derive(18, "obstacle-gates")
	for k := 0; k < 20000; k++ {
		p := vec.New(src.Uniform(-40, 40), src.Uniform(20, 140), 10)
		mc := src.Uniform(0, 25)
		if clearanceHolds(w, p, mc, dr) && !exactHolds(p, mc) {
			t.Fatalf("clearance gate: mc=%v p=%#v proven clear, exact pass disagrees", mc, p)
		}
		o := obstacles[k%2]
		if r := src.Uniform(0, 25); o.SurfaceBeyond(p, r) && !(o.SurfaceDistance(p) >= r) {
			t.Fatalf("shill gate: r=%v p=%#v proven beyond, exact %v", r, p, o.SurfaceDistance(p))
		}
	}
}

func TestWorldValidate(t *testing.T) {
	ok := &World{Obstacles: []Obstacle{{Radius: 1}}, DestRadius: 2}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid world rejected: %v", err)
	}
	if err := (&World{Obstacles: []Obstacle{{Radius: 0}}, DestRadius: 2}).Validate(); err == nil {
		t.Error("zero-radius obstacle accepted")
	}
	if err := (&World{DestRadius: 0}).Validate(); err == nil {
		t.Error("zero destination radius accepted")
	}
}
