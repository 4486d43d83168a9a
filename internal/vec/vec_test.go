package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddSub(t *testing.T) {
	v := New(1, 2, 3)
	w := New(4, -5, 6)
	if got, want := v.Add(w), New(5, -3, 9); got != want {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if got, want := v.Sub(w), New(-3, 7, -3); got != want {
		t.Errorf("Sub = %v, want %v", got, want)
	}
}

func TestScaleNeg(t *testing.T) {
	v := New(1, -2, 3)
	if got, want := v.Scale(2), New(2, -4, 6); got != want {
		t.Errorf("Scale = %v, want %v", got, want)
	}
	if got, want := v.Neg(), New(-1, 2, -3); got != want {
		t.Errorf("Neg = %v, want %v", got, want)
	}
}

func TestDotCross(t *testing.T) {
	x := New(1, 0, 0)
	y := New(0, 1, 0)
	if got := x.Dot(y); got != 0 {
		t.Errorf("x·y = %v, want 0", got)
	}
	if got := New(1, 2, 3).Dot(New(4, -5, 6)); got != 12 {
		t.Errorf("Dot = %v, want 12", got)
	}
}

func TestNormDist(t *testing.T) {
	v := New(3, 4, 0)
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := v.NormSq(); got != 25 {
		t.Errorf("NormSq = %v, want 25", got)
	}
	if got := v.Dist(New(0, 0, 0)); got != 5 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestHorizontalDist(t *testing.T) {
	v := New(0, 0, 100)
	w := New(3, 4, -50)
	if got := v.HorizontalDist(w); got != 5 {
		t.Errorf("HorizontalDist = %v, want 5 (Z must be ignored)", got)
	}
}

func TestUnit(t *testing.T) {
	v := New(0, 3, 4)
	u := v.Unit()
	if math.Abs(u.Norm()-1) > 1e-12 {
		t.Errorf("Unit norm = %v, want 1", u.Norm())
	}
	if Zero.Unit() != Zero {
		t.Errorf("Unit of zero vector must be zero")
	}
}

func TestClampNorm(t *testing.T) {
	v := New(3, 4, 0)
	if got := v.ClampNorm(10); got != v {
		t.Errorf("ClampNorm should not change short vectors: got %v", got)
	}
	c := v.ClampNorm(1)
	if math.Abs(c.Norm()-1) > 1e-12 {
		t.Errorf("ClampNorm norm = %v, want 1", c.Norm())
	}
	if got := v.ClampNorm(0); got != Zero {
		t.Errorf("ClampNorm(0) = %v, want zero", got)
	}
	if got := v.ClampNorm(-1); got != Zero {
		t.Errorf("ClampNorm(-1) = %v, want zero", got)
	}
}

// clampNormReference is ClampNorm as it was before its squared-norm
// gate: the formula the gated version must reproduce bit for bit.
func clampNormReference(v Vec3, max float64) Vec3 {
	if max <= 0 {
		return Zero
	}
	n := v.Norm()
	if n <= max {
		return v
	}
	return v.Scale(max / n)
}

func sameBits(a, b Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

// TestClampNormMatchesReference holds the gated ClampNorm to the
// ungated formula on every kind of input the gate could misjudge:
// norms at max and within ulps of it and of the gate's own threshold
// max·√(1−1e-9), signed zeros, subnormal vectors and limits,
// limits at the edges of PaddedSq's range, Inf and NaN components
// and limits, and non-positive limits.
func TestClampNormMatchesReference(t *testing.T) {
	maxes := []float64{
		1, 4, 6, 8, 0.3, 1e-3, 1e6, 1e300, 1e-300,
		0x1p-500, 0x1p500, math.Nextafter(0x1p-500, 0), math.Nextafter(0x1p500, math.Inf(1)),
		5e-324, 1e-310, math.SmallestNonzeroFloat64 * 3,
		math.MaxFloat64, math.Inf(1), math.NaN(),
		0, math.Copysign(0, -1), -1, math.Inf(-1),
	}
	rnd := rand.New(rand.NewSource(18))
	dirs := []Vec3{New(1, 0, 0), New(0, -1, 0), New(0, 0, 1)}
	for k := 0; k < 8; k++ {
		dirs = append(dirs, New(rnd.NormFloat64(), rnd.NormFloat64(), rnd.NormFloat64()).Unit())
	}
	var cases []struct {
		v   Vec3
		max float64
	}
	add := func(v Vec3, max float64) {
		cases = append(cases, struct {
			v   Vec3
			max float64
		}{v, max})
	}
	// ulps returns x stepped k ulps up (k > 0) or down.
	ulps := func(x float64, k int) float64 {
		for ; k > 0; k-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		for ; k < 0; k++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		return x
	}
	for _, max := range maxes {
		norms := []float64{max, max * math.Sqrt(1-1e-9), max * 2, max / 2}
		for _, norm := range norms {
			for k := -3; k <= 3; k++ {
				nk := ulps(norm, k)
				for _, d := range dirs {
					add(d.Scale(nk), max)
				}
			}
		}
		for k := 0; k < 200; k++ {
			v := New(rnd.NormFloat64(), rnd.NormFloat64(), rnd.NormFloat64())
			add(v.Scale(math.Abs(max)*math.Exp(rnd.NormFloat64())), max)
		}
		negZero := math.Copysign(0, -1)
		tiny := math.SmallestNonzeroFloat64
		for _, v := range []Vec3{
			Zero, New(negZero, 0, negZero), New(negZero, negZero, negZero),
			New(tiny, -tiny, 0), New(1e-310, 3e-312, -2e-309), New(0x1p-1022, 0, 0),
			New(math.Inf(1), 0, 0), New(1, math.Inf(-1), 2), New(math.NaN(), 0, 0),
			New(0, 0, math.NaN()), New(math.Inf(1), math.NaN(), 0),
			New(1e200, 1e200, 0), New(math.MaxFloat64, 0, 0),
		} {
			add(v, max)
		}
	}
	for _, c := range cases {
		got, want := c.v.ClampNorm(c.max), clampNormReference(c.v, c.max)
		if !sameBits(got, want) {
			t.Fatalf("ClampNorm(%v, %v) = %#v, reference %#v", c.v, c.max, got, want)
		}
	}
	t.Logf("%d cases", len(cases))
}

func TestPerpXY(t *testing.T) {
	// Flying north (+Y): right is east (+X).
	north := New(0, 1, 0)
	if got := north.PerpXY(); !got.ApproxEqual(New(1, 0, 0), 1e-12) {
		t.Errorf("PerpXY(north) = %v, want east", got)
	}
	// Flying east (+X): right is south (-Y).
	east := New(1, 0, 0)
	if got := east.PerpXY(); !got.ApproxEqual(New(0, -1, 0), 1e-12) {
		t.Errorf("PerpXY(east) = %v, want south", got)
	}
	// Purely vertical vector has no horizontal perpendicular.
	if got := New(0, 0, 5).PerpXY(); got != Zero {
		t.Errorf("PerpXY(vertical) = %v, want zero", got)
	}
}

func TestIsFinite(t *testing.T) {
	if !New(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	if New(math.NaN(), 0, 0).IsFinite() {
		t.Error("NaN vector reported finite")
	}
	if New(0, math.Inf(1), 0).IsFinite() {
		t.Error("Inf vector reported finite")
	}
}

// TestIsFiniteMatchesMath holds IsFinite's x−x test to math's IsNaN
// and IsInf on every class of float64 in every component: signed
// zeros, subnormals, the largest finites, infinities, quiet and
// signalling NaNs with several payloads and signs, and random bit
// patterns.
func TestIsFiniteMatchesMath(t *testing.T) {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.3,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-310, -0x1p-1023, 0x1p-1022,
		math.MaxFloat64, -math.MaxFloat64, math.Nextafter(math.MaxFloat64, 0),
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, bits := range []uint64{
		0x7ff8000000000000, 0xfff8000000000000, 0x7ff0000000000001, 0xfff0000000000001,
		0x7ff4000000000000, 0x7fffffffffffffff, 0xffffffffffffffff, 0x7ff8000000000001,
	} {
		vals = append(vals, math.Float64frombits(bits))
	}
	rnd := rand.New(rand.NewSource(21))
	for k := 0; k < 2000; k++ {
		vals = append(vals, math.Float64frombits(rnd.Uint64()))
	}
	// Bit patterns with an all-ones exponent are Inf or NaN; random
	// draws hit one in 2048, so add some directly.
	for k := 0; k < 50; k++ {
		vals = append(vals, math.Float64frombits(rnd.Uint64()|0x7ff0000000000000))
	}
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	for _, x := range vals {
		for _, v := range []Vec3{New(x, 1, 2), New(-3, x, 0), New(0, 5e-324, x), New(x, x, x)} {
			want := finite(v.X) && finite(v.Y) && finite(v.Z)
			if got := v.IsFinite(); got != want {
				t.Fatalf("IsFinite(%#016x in %v) = %v, want %v", math.Float64bits(x), v, got, want)
			}
		}
	}
	for k := 0; k < 2000; k++ {
		v := New(vals[rnd.Intn(len(vals))], vals[rnd.Intn(len(vals))], vals[rnd.Intn(len(vals))])
		want := finite(v.X) && finite(v.Y) && finite(v.Z)
		if got := v.IsFinite(); got != want {
			t.Fatalf("IsFinite(%v) = %v, want %v", v, got, want)
		}
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != Zero {
		t.Errorf("Mean(nil) = %v, want zero", got)
	}
	vs := []Vec3{New(1, 0, 0), New(3, 2, -2)}
	if got, want := Mean(vs), New(2, 1, -1); !got.ApproxEqual(want, 1e-12) {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestString(t *testing.T) {
	if got, want := New(1, 2, 3).String(), "(1.000, 2.000, 3.000)"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// clampComponents keeps quick-generated values in a numerically sane
// range so property tolerances are meaningful.
func clampComponents(v Vec3) Vec3 {
	c := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 1
		}
		return math.Mod(x, 1e6)
	}
	return Vec3{c(v.X), c(v.Y), c(v.Z)}
}

func TestPropAddCommutative(t *testing.T) {
	f := func(a, b Vec3) bool {
		a, b = clampComponents(a), clampComponents(b)
		return a.Add(b) == b.Add(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubAddInverse(t *testing.T) {
	f := func(a, b Vec3) bool {
		a, b = clampComponents(a), clampComponents(b)
		got := a.Add(b).Sub(b)
		return got.ApproxEqual(a, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropTriangleInequality(t *testing.T) {
	f := func(a, b Vec3) bool {
		a, b = clampComponents(a), clampComponents(b)
		return a.Add(b).Norm() <= a.Norm()+b.Norm()+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropClampNormNeverExceeds(t *testing.T) {
	f := func(a Vec3, m float64) bool {
		a = clampComponents(a)
		m = math.Abs(math.Mod(m, 1e3))
		return a.ClampNorm(m).Norm() <= m+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropPerpXYOrthogonal(t *testing.T) {
	f := func(a Vec3) bool {
		a = clampComponents(a)
		p := a.PerpXY()
		if p == Zero {
			return true
		}
		if math.Abs(p.Norm()-1) > 1e-9 {
			return false
		}
		return math.Abs(p.Dot(a.Horizontal()))/a.Horizontal().Norm() < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropUnitNorm(t *testing.T) {
	f := func(a Vec3) bool {
		a = clampComponents(a)
		u := a.Unit()
		if a.Norm() == 0 {
			return u == Zero
		}
		return math.Abs(u.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
