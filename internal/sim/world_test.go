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
	if n.Dist(vec.New(1, 0, 0)) > 1e-9 {
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

// TestObstacleGatesMatchExact holds the square-root-free obstacle gate
// to the exact computation it stands in for: AxisDistSq(p) ≥
// SurfaceGate(r) must imply SurfaceDistance(p) > r, on positions on
// both sides of the exact boundary and of the padded bound, down to
// ±1 ulp, and on random positions. flock's shill gate skips an
// obstacle exactly then (r = RShill), and the Stepper's contact gate
// (r = DroneRadius) rules out a collision. The gate must also fire
// just past its bound and never on the exact boundary, so the check
// does not hold vacuously, and it must never fire for NaN positions
// or radii outside vec.PaddedSq's range.
func TestObstacleGatesMatchExact(t *testing.T) {
	obstacles := []Obstacle{
		{Center: vec.New(0, 100, 0), Radius: 4},
		{Center: vec.New(-3.7, 41.2, 9), Radius: 2.5},
	}
	beyond := func(o Obstacle, p vec.Vec3, r float64) bool { return o.AxisDistSq(p) >= o.SurfaceGate(r) }
	// 12 is flock.DefaultParams().RShill, 0.25 the default DroneRadius.
	for _, o := range obstacles {
		for _, r := range []float64{12, 0.25, 0.5, 0, 30} {
			edge := r + o.Radius
			gate := math.Sqrt(o.SurfaceGate(r))
			for _, p := range ringAround(o.Center, edge) {
				if beyond(o, p, r) {
					t.Errorf("gate fires on the boundary: r=%v p=%#v", r, p)
				}
			}
			for _, p := range ringAround(o.Center, gate) {
				if beyond(o, p, r) && !(o.SurfaceDistance(p) > r) {
					t.Errorf("gate: r=%v p=%#v proven beyond, exact %v", r, p, o.SurfaceDistance(p))
				}
			}
			if p := o.Center.Add(vec.New(gate*(1+1e-12), 0, 0)); !beyond(o, p, r) {
				t.Errorf("gate never fires: r=%v p=%#v", r, p)
			}
		}
	}
	o := obstacles[0]
	if beyond(o, vec.New(math.NaN(), 0, 0), 1) {
		t.Error("gate fires for a NaN position")
	}
	for _, r := range []float64{math.NaN(), math.Inf(1), 1e300} {
		if beyond(o, vec.New(1e200, 0, 0), r) {
			t.Errorf("gate fires for r=%v", r)
		}
	}

	src := rng.Derive(18, "obstacle-gates")
	for k := 0; k < 20000; k++ {
		p := vec.New(src.Uniform(-40, 40), src.Uniform(20, 140), 10)
		o := obstacles[k%2]
		if r := src.Uniform(0, 25); beyond(o, p, r) && !(o.SurfaceDistance(p) > r) {
			t.Fatalf("gate: r=%v p=%#v proven beyond, exact %v", r, p, o.SurfaceDistance(p))
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
