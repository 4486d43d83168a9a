package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"swarmfuzz/internal/vec"
)

func TestBodyParamsValidate(t *testing.T) {
	if err := DefaultBodyParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := []BodyParams{
		{Tau: 0, MaxAccel: 1, MaxSpeed: 1},
		{Tau: 1, MaxAccel: 0, MaxSpeed: 1},
		{Tau: 1, MaxAccel: 1, MaxSpeed: 0},
		{Tau: -1, MaxAccel: 1, MaxSpeed: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
}

func TestBodyConvergesToCommand(t *testing.T) {
	p := DefaultBodyParams()
	l := p.Limits(0.05)
	b := Body{}
	cmd := vec.New(2, 0, 0)
	for i := 0; i < 400; i++ {
		b.Step(cmd, &l)
	}
	if b.Vel.Dist(cmd) > 0.01 {
		t.Errorf("velocity %v did not converge to command %v", b.Vel, cmd)
	}
	if b.Pos.X <= 0 {
		t.Errorf("body did not advance: %v", b.Pos)
	}
}

func TestBodySpeedLimit(t *testing.T) {
	p := DefaultBodyParams()
	l := p.Limits(0.05)
	b := Body{}
	cmd := vec.New(100, 0, 0) // far above MaxSpeed
	for i := 0; i < 1000; i++ {
		b.Step(cmd, &l)
		if s := b.Vel.Norm(); s > p.MaxSpeed+1e-9 {
			t.Fatalf("speed %v exceeded limit %v", s, p.MaxSpeed)
		}
	}
	if math.Abs(b.Vel.Norm()-p.MaxSpeed) > 0.01 {
		t.Errorf("saturated speed %v, want %v", b.Vel.Norm(), p.MaxSpeed)
	}
}

func TestBodyAccelLimit(t *testing.T) {
	p := DefaultBodyParams()
	b := Body{}
	dt := 0.05
	l := p.Limits(dt)
	prev := b.Vel
	for i := 0; i < 100; i++ {
		b.Step(vec.New(0, p.MaxSpeed, 0), &l)
		dv := b.Vel.Sub(prev).Norm()
		if dv > p.MaxAccel*dt+1e-9 {
			t.Fatalf("step %d acceleration %v exceeds limit %v", i, dv/dt, p.MaxAccel)
		}
		prev = b.Vel
	}
}

func TestCrashedBodyFrozen(t *testing.T) {
	p := DefaultBodyParams()
	l := p.Limits(0.05)
	b := Body{Pos: vec.New(1, 2, 3), Vel: vec.New(1, 0, 0), Crashed: true}
	before := b
	b.Step(vec.New(5, 5, 0), &l)
	if b != before {
		t.Errorf("crashed body moved: %+v", b)
	}
}

func TestBodyZeroCommandBrakes(t *testing.T) {
	p := DefaultBodyParams()
	l := p.Limits(0.05)
	b := Body{Vel: vec.New(3, 0, 0)}
	for i := 0; i < 400; i++ {
		b.Step(vec.Zero, &l)
	}
	if b.Vel.Norm() > 0.01 {
		t.Errorf("body did not brake: |v| = %v", b.Vel.Norm())
	}
}

func TestPropBodySpeedNeverExceedsLimit(t *testing.T) {
	p := DefaultBodyParams()
	l := p.Limits(0.05)
	f := func(cx, cy, vx, vy float64) bool {
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 50)
		}
		b := Body{Vel: vec.New(clamp(vx), clamp(vy), 0).ClampNorm(p.MaxSpeed)}
		cmd := vec.New(clamp(cx), clamp(cy), 0)
		for i := 0; i < 50; i++ {
			b.Step(cmd, &l)
			if b.Vel.Norm() > p.MaxSpeed+1e-9 {
				return false
			}
		}
		return b.Pos.IsFinite() && b.Vel.IsFinite()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampRef is ClampNorm's defining formula, with no squared-norm gate.
func clampRef(v vec.Vec3, max float64) vec.Vec3 {
	if max <= 0 {
		return vec.Zero
	}
	n := v.Norm()
	if n <= max {
		return v
	}
	return v.Scale(max / n)
}

// stepRef is Body.Step as the formula it implements: three norm clamps
// rebuilt from BodyParams, and 1/Tau divided out on every call.
func stepRef(b *Body, cmd vec.Vec3, p BodyParams, dt float64) {
	if b.Crashed {
		return
	}
	cmd = clampRef(cmd, p.MaxSpeed)
	accel := clampRef(cmd.Sub(b.Vel).Scale(1/p.Tau), p.MaxAccel)
	b.Vel = clampRef(b.Vel.Add(accel.Scale(dt)), p.MaxSpeed)
	b.Pos = b.Pos.Add(b.Vel.Scale(dt))
}

func sameVecBits(a, b vec.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// TestBodyStepMatchesClampFormula holds Body.Step, with its limits
// built once by BodyParams.Limits, to stepRef bit for bit: on random
// states and commands; on commanded speeds, velocity changes and
// resulting speeds within ulps of MaxSpeed, MaxAccel·Tau and the norm
// gates' thresholds; on non-finite commands; and on crashed bodies.
// The parameter sets include Tau values whose reciprocals are inexact.
func TestBodyStepMatchesClampFormula(t *testing.T) {
	params := []BodyParams{
		DefaultBodyParams(),
		{Tau: 1.0 / 3, MaxAccel: 2.5, MaxSpeed: 11},
		{Tau: 0.7, MaxAccel: 1e-3, MaxSpeed: 0.1},
		{Tau: 3, MaxAccel: 40, MaxSpeed: 1e-2},
	}
	rnd := rand.New(rand.NewSource(21))
	ulps := func(x float64, k int) float64 {
		for ; k > 0; k-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		for ; k < 0; k++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		return x
	}
	dirs := []vec.Vec3{vec.New(1, 0, 0), vec.New(0, -1, 0), vec.New(0, 0, 1)}
	for k := 0; k < 6; k++ {
		dirs = append(dirs, vec.New(rnd.NormFloat64(), rnd.NormFloat64(), rnd.NormFloat64()).Unit())
	}
	randVec := func(scale float64) vec.Vec3 {
		return vec.New(rnd.NormFloat64(), rnd.NormFloat64(), rnd.NormFloat64()).Scale(scale)
	}
	nan, inf := math.NaN(), math.Inf(1)
	cases := 0
	for _, p := range params {
		for _, dt := range []float64{0.05, 0.01, 0.3} {
			l := p.Limits(dt)
			check := func(b Body, cmd vec.Vec3) {
				t.Helper()
				got, want := b, b
				got.Step(cmd, &l)
				stepRef(&want, cmd, p, dt)
				if !sameVecBits(got.Pos, want.Pos) || !sameVecBits(got.Vel, want.Vel) || got.Crashed != want.Crashed {
					t.Fatalf("%+v dt=%v: Step(%#v, %#v) = %#v, formula %#v", p, dt, b, cmd, got, want)
				}
				cases++
			}
			// Speeds on both sides of MaxSpeed and of its gate, as the
			// command and as the velocity the final clamp sees.
			for _, edge := range []float64{p.MaxSpeed, p.MaxSpeed * math.Sqrt(1-1e-9)} {
				for k := -3; k <= 3; k++ {
					e := ulps(edge, k)
					for _, d := range dirs {
						pos := randVec(50)
						check(Body{Pos: pos}, d.Scale(e))
						check(Body{Pos: pos, Vel: randVec(p.MaxSpeed / 2)}, d.Scale(e))
						check(Body{Pos: pos, Vel: d.Scale(e)}, d.Scale(e))
					}
				}
			}
			// Accelerations on both sides of MaxAccel and of its gate:
			// from rest along x, the acceleration is fl(cmd.X·(1/Tau)),
			// so step cmd.X until it lands on the target exactly.
			for _, edge := range []float64{p.MaxAccel, p.MaxAccel * math.Sqrt(1-1e-9)} {
				for k := -3; k <= 3; k++ {
					a := ulps(edge, k)
					x := a * p.Tau
					for j := 0; j < 8 && x*l.invTau != a; j++ {
						if x*l.invTau < a {
							x = ulps(x, 1)
						} else {
							x = ulps(x, -1)
						}
					}
					if x*l.invTau != a {
						t.Fatalf("%+v: no command accelerates at %v from rest", p, a)
					}
					check(Body{Pos: randVec(50)}, vec.New(x, 0, 0))
					check(Body{Pos: randVec(50), Vel: vec.New(0, 0, x)}, vec.New(x, 0, x))
				}
			}
			for k := 0; k < 300; k++ {
				check(Body{Pos: randVec(100), Vel: randVec(p.MaxSpeed)}, randVec(2*p.MaxSpeed))
			}
			for _, cmd := range []vec.Vec3{
				vec.New(nan, 0, 0), vec.New(0, inf, 0), vec.New(0, 0, -inf),
				vec.New(inf, nan, 1), vec.New(math.MaxFloat64, math.MaxFloat64, 0),
			} {
				check(Body{Pos: randVec(10), Vel: randVec(p.MaxSpeed)}, cmd)
				check(Body{Pos: randVec(10), Vel: randVec(p.MaxSpeed), Crashed: true}, cmd)
			}
			check(Body{Pos: randVec(10), Vel: randVec(p.MaxSpeed), Crashed: true}, randVec(p.MaxSpeed))
		}
	}
	t.Logf("%d cases", cases)
}
