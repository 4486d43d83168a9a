package gps

import (
	"math"
	"testing"
	"testing/quick"

	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/vec"
)

func TestDirectionString(t *testing.T) {
	if Right.String() != "right" || Left.String() != "left" {
		t.Errorf("direction strings wrong: %s %s", Right, Left)
	}
	if got := Direction(3).String(); got != "Direction(3)" {
		t.Errorf("unknown direction String = %q", got)
	}
}

func TestDirectionValid(t *testing.T) {
	if !Right.Valid() || !Left.Valid() {
		t.Error("Right/Left must be valid")
	}
	if Direction(0).Valid() || Direction(2).Valid() {
		t.Error("0 and 2 must be invalid directions")
	}
}

func TestIdealSensorPassThrough(t *testing.T) {
	s := NewSensor(0, 0, rng.New(0))
	truth := vec.New(10, 20, 30)
	r := read(s, truth, 1.5)
	if r.Position != truth {
		t.Errorf("ideal sensor perturbed position: %v", r.Position)
	}
	if r.Time != 1.5 {
		t.Errorf("Time = %v, want 1.5", r.Time)
	}
	if r.Spoofed {
		t.Error("ideal sensor reading marked spoofed")
	}
}

func TestSensorBiasMagnitude(t *testing.T) {
	s := NewSensor(3, 0, rng.New(7))
	r := read(s, vec.Zero, 0)
	if got := r.Position.Norm(); math.Abs(got-3) > 1e-9 {
		t.Errorf("bias magnitude = %v, want 3", got)
	}
	// Bias is constant across reads.
	r2 := read(s, vec.Zero, 1)
	if r.Position != r2.Position {
		t.Error("bias changed between reads")
	}
	// Bias is horizontal.
	if r.Position.Z != 0 {
		t.Errorf("bias has vertical component %v", r.Position.Z)
	}
}

func TestSensorNoiseStatistics(t *testing.T) {
	s := NewSensor(0, 2, rng.New(9))
	const n = 20000
	var sumX, sumXX float64
	for i := 0; i < n; i++ {
		r := read(s, vec.Zero, float64(i))
		sumX += r.Position.X
		sumXX += r.Position.X * r.Position.X
	}
	mean := sumX / n
	std := math.Sqrt(sumXX/n - mean*mean)
	if math.Abs(mean) > 0.1 {
		t.Errorf("noise mean = %v, want ~0", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Errorf("noise stddev = %v, want ~2", std)
	}
}

func TestSensorDeterminism(t *testing.T) {
	a := NewSensor(1, 0.5, rng.New(11))
	b := NewSensor(1, 0.5, rng.New(11))
	for i := 0; i < 50; i++ {
		ra := read(a, vec.New(float64(i), 0, 0), float64(i))
		rb := read(b, vec.New(float64(i), 0, 0), float64(i))
		if ra != rb {
			t.Fatalf("same-seed sensors diverged at read %d", i)
		}
	}
}

func TestSpoofPlanActive(t *testing.T) {
	p := SpoofPlan{Start: 10, Duration: 5}
	cases := []struct {
		t    float64
		want bool
	}{
		{9.99, false}, {10, true}, {12.5, true}, {14.99, true}, {15, false}, {20, false},
	}
	for _, c := range cases {
		if got := p.Active(c.t); got != c.want {
			t.Errorf("Active(%v) = %v, want %v", c.t, got, c.want)
		}
	}
	if p.End() != 15 {
		t.Errorf("End = %v, want 15", p.End())
	}
}

func TestSpoofPlanOffsetDirection(t *testing.T) {
	axis := vec.New(0, 1, 0) // migrating north
	p := SpoofPlan{Start: 0, Duration: 10, Direction: Right, Distance: 5}
	off := offset(p, axis, 5)
	// Right of north is east (+X).
	if off.Dist(vec.New(5, 0, 0)) > 1e-9 {
		t.Errorf("right offset = %v, want (5,0,0)", off)
	}
	p.Direction = Left
	off = offset(p, axis, 5)
	if off.Dist(vec.New(-5, 0, 0)) > 1e-9 {
		t.Errorf("left offset = %v, want (-5,0,0)", off)
	}
}

func TestSpoofPlanOffsetOutsideWindow(t *testing.T) {
	p := SpoofPlan{Start: 10, Duration: 5, Direction: Right, Distance: 5}
	if off := offset(p, vec.New(1, 0, 0), 2); off != vec.Zero {
		t.Errorf("offset before window = %v, want zero", off)
	}
	if off := offset(p, vec.New(1, 0, 0), 16); off != vec.Zero {
		t.Errorf("offset after window = %v, want zero", off)
	}
}

func TestSpoofPlanValidate(t *testing.T) {
	valid := SpoofPlan{Target: 1, Start: 2, Duration: 3, Direction: Left, Distance: 5}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
	bad := []SpoofPlan{
		{Target: -1, Direction: Right},
		{Start: -1, Direction: Right},
		{Duration: -1, Direction: Right},
		{Direction: Direction(0)},
		{Direction: Right, Distance: -5},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
}

func TestSpooferTargetsOnlyTarget(t *testing.T) {
	plan := SpoofPlan{Target: 2, Start: 0, Duration: 100, Direction: Right, Distance: 10}
	sp := NewSpoofer(plan, vec.New(0, 1, 0))
	if off, ok := sp.Offset(1, 50); ok || off != vec.Zero {
		t.Errorf("non-target fix shifted by %v (ok=%v)", off, ok)
	}
	off, ok := sp.Offset(2, 50)
	if !ok {
		t.Error("target fix not spoofed")
	}
	if off.Dist(vec.New(10, 0, 0)) > 1e-9 {
		t.Errorf("target fix shifted by %v, want (10,0,0)", off)
	}
}

func TestSpooferInactiveWindow(t *testing.T) {
	plan := SpoofPlan{Target: 0, Start: 10, Duration: 5, Direction: Right, Distance: 10}
	sp := NewSpoofer(plan, vec.New(0, 1, 0))
	if off, ok := sp.Offset(0, 2); ok || off != vec.Zero {
		t.Errorf("fix shifted by %v outside the window (ok=%v)", off, ok)
	}
}

func TestNilSpooferPassThrough(t *testing.T) {
	var sp *Spoofer
	if off, ok := sp.Offset(0, 2); ok || off != vec.Zero {
		t.Errorf("nil spoofer shifted a fix by %v (ok=%v)", off, ok)
	}
}

func TestSpooferPlanAccessor(t *testing.T) {
	plan := SpoofPlan{Target: 3, Start: 1, Duration: 2, Direction: Left, Distance: 5}
	if got := NewSpoofer(plan, vec.New(1, 0, 0)).Plan(); got != plan {
		t.Errorf("Plan = %+v, want %+v", got, plan)
	}
}

func TestSpoofPlanString(t *testing.T) {
	p := SpoofPlan{Target: 3, Start: 1.5, Duration: 2.25, Direction: Left, Distance: 5}
	want := "spoof{target=3 t_s=1.50s Δt=2.25s θ=left d=5.0m}"
	if got := p.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestPropOffsetMagnitude(t *testing.T) {
	f := func(dist float64, right bool, tFrac float64) bool {
		dist = math.Abs(math.Mod(dist, 100))
		dir := Right
		if !right {
			dir = Left
		}
		p := SpoofPlan{Start: 0, Duration: 10, Direction: dir, Distance: dist}
		tm := math.Abs(math.Mod(tFrac, 10))
		off := offset(p, vec.New(3, 4, 0), tm)
		return math.Abs(off.Norm()-dist) < 1e-9 && off.Z == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropOffsetPerpendicular(t *testing.T) {
	f := func(ax, ay float64) bool {
		ax = math.Mod(ax, 1e3)
		ay = math.Mod(ay, 1e3)
		if math.IsNaN(ax) || math.IsNaN(ay) || (ax == 0 && ay == 0) {
			return true
		}
		axis := vec.New(ax, ay, 0)
		p := SpoofPlan{Start: 0, Duration: 1, Direction: Right, Distance: 7}
		off := offset(p, axis, 0.5)
		return math.Abs(off.Dot(axis)) < 1e-6*axis.Norm()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// read is one fix of s as the simulator takes it: s's receiver
// perceives truth with the next noise of s's stream.
func read(s *Sensor, truth vec.Vec3, t float64) Reading {
	return Reading{Position: s.Receiver().Perceive(truth, s.Noise()), Time: t}
}

// TestPerceiveMatchesRead sweeps random receivers and true positions,
// signed zeros included, and requires each fix to equal the reference
// read, computed straight from a copy of the sensor's stream: the true
// position plus the bias drawn at seeding, then plus the fix's two
// Gaussian draws (x first) when the sensor is noisy, bit for bit.
func TestPerceiveMatchesRead(t *testing.T) {
	src := rng.New(21)
	coord := func() float64 {
		switch src.Intn(4) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		default:
			return src.Uniform(-500, 500)
		}
	}
	negZeros := 0
	for trial := 0; trial < 300; trial++ {
		biasMag := []float64{0, 0.4, src.Uniform(0, 5)}[trial%3]
		noiseStd := []float64{0, 0.12, src.Uniform(0, 3)}[trial/3%3]
		seed := src.Uint64()
		sensor, ref := NewSensor(biasMag, noiseStd, rng.New(seed)), rng.New(seed)
		angle := ref.Uniform(0, 2*math.Pi)
		bias := vec.New(biasMag*math.Cos(angle), biasMag*math.Sin(angle), 0)
		for k := 0; k < 20; k++ {
			truth, at := vec.New(coord(), coord(), coord()), src.Uniform(0, 100)
			want := Reading{Position: truth.Add(bias), Time: at}
			if noiseStd > 0 {
				x := ref.Gaussian(0, noiseStd)
				want.Position = want.Position.Add(vec.New(x, ref.Gaussian(0, noiseStd), 0))
			}
			got := read(sensor, truth, at)
			for c, pair := range [][2]float64{{got.Position.X, want.Position.X}, {got.Position.Y, want.Position.Y}, {got.Position.Z, want.Position.Z}, {got.Time, want.Time}} {
				if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
					t.Fatalf("trial %d fix %d component %d: Perceive %v, reference %v", trial, k, c, pair[0], pair[1])
				}
				if c < 3 && pair[1] == 0 && math.Signbit(pair[1]) {
					negZeros++
				}
			}
			if got.Spoofed {
				t.Fatalf("trial %d fix %d: unspoofed fix marked spoofed", trial, k)
			}
		}
	}
	if negZeros == 0 {
		t.Fatal("the sweep produced no −0 coordinate; it no longer covers signed zeros")
	}
}

// offset is the shift a Spoofer running p adds to the target's fix at
// time t: zero outside the attack window.
func offset(p SpoofPlan, axis vec.Vec3, t float64) vec.Vec3 {
	off, _ := NewSpoofer(p, axis).Offset(p.Target, t)
	return off
}
