// Package vec provides the small 3-D vector algebra used throughout the
// simulator, the flocking controller and the fuzzer. Vectors are plain
// value types; all operations return new values and never mutate their
// receiver, which keeps simulation state updates easy to reason about.
package vec

import (
	"fmt"
	"math"
)

// Vec3 is a 3-D vector with X east, Y north, Z up (ENU convention).
type Vec3 struct {
	X, Y, Z float64
}

// Zero is the zero vector.
var Zero = Vec3{}

// New returns the vector (x, y, z).
func New(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the dot product v · w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// NormSq returns the squared Euclidean length of v.
func (v Vec3) NormSq() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// HorizontalDist returns the distance between v and w ignoring Z.
// Obstacles are vertical cylinders, so horizontal distance decides
// collisions.
func (v Vec3) HorizontalDist(w Vec3) float64 {
	dx, dy := v.X-w.X, v.Y-w.Y
	return math.Hypot(dx, dy)
}

// Unit returns v normalised to length 1. The zero vector is returned
// unchanged so callers do not need to special-case it.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return Zero
	}
	return v.Scale(1 / n)
}

// ClampNorm returns v unchanged if |v| <= max, otherwise v rescaled to
// length max. A non-positive max yields the zero vector. It is
// NewLimit(max).Clamp(v); callers that clamp to the same max many
// times build the Limit once.
func (v Vec3) ClampNorm(max float64) Vec3 { return NewLimit(max).Clamp(v) }

// Limit is a norm cap with its square-root-free gate precomputed: the
// padded squared bound max²·(1−1e-9) that ClampNorm would otherwise
// rebuild on every call.
type Limit struct {
	max, gate float64
}

// NewLimit returns the Limit that caps norms at max.
func NewLimit(max float64) Limit {
	return Limit{max: max, gate: PaddedSq(max, -1e-9)}
}

// Clamp returns v unchanged if |v| <= max, otherwise v rescaled to
// length max. A non-positive max yields the zero vector.
//
// Most calls clamp nothing, so the test runs on squares first:
// v·v ≤ max²·(1−1e-9) proves that the rounded Norm is ≤ max (see
// PaddedSq), and v is returned without a square root. The gate is NaN
// for every max ≤ 0 (PaddedSq's range starts at 2^−500), so those take
// the slow path too. Anything else, NaN included, takes the exact
// comparison, so the result is bit for bit that of comparing Norm with
// max.
func (l Limit) Clamp(v Vec3) Vec3 {
	d2 := v.Dot(v)
	if d2 <= l.gate {
		return v
	}
	if l.max <= 0 {
		return Zero
	}
	n := math.Sqrt(d2) // v.Norm(), reusing the dot product
	if n <= l.max {
		return v
	}
	return v.Scale(l.max / n)
}

// PaddedSq returns r²·(1+rel), the squared-distance gate for the
// threshold r widened by the relative pad rel (±1e-9 at every call
// site). With rel = +1e-9, a correctly rounded d2 ≥ PaddedSq(r, rel)
// proves the rounded sqrt(d2) ≥ r; with rel = −1e-9, d2 ≤ PaddedSq
// proves it ≤ r. The pad moves the root by ~5e-10 relative, about
// 2·10⁶ ulps, against the two roundings of the bound and the one of
// the root. That argument needs r² to be a normal float, so outside
// 2^±500 it returns NaN, which fails every comparison and sends the
// caller to its exact path.
func PaddedSq(r, rel float64) float64 {
	if !(r >= 0x1p-500 && r <= 0x1p500) {
		return math.NaN()
	}
	return r * r * (1 + rel)
}

// Horizontal returns v with its Z component zeroed.
func (v Vec3) Horizontal() Vec3 { return Vec3{v.X, v.Y, 0} }

// PerpXY returns the unit vector perpendicular to v in the XY plane,
// rotated 90 degrees clockwise when viewed from above (i.e. to the
// "right" of v for a drone flying along v). Z is ignored and zeroed.
// For a vector with no horizontal component it returns the zero vector.
func (v Vec3) PerpXY() Vec3 {
	h := v.Horizontal()
	n := h.Norm()
	if n == 0 {
		return Zero
	}
	return Vec3{h.Y / n, -h.X / n, 0}
}

// IsFinite reports whether all components are finite numbers. x−x is
// exactly 0 for every finite x and NaN for ±Inf and NaN, so one
// subtraction and one comparison per component decide it exactly.
func (v Vec3) IsFinite() bool {
	return v.X-v.X == 0 && v.Y-v.Y == 0 && v.Z-v.Z == 0
}

// String implements fmt.Stringer.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f)", v.X, v.Y, v.Z)
}

// Mean returns the arithmetic mean of the given vectors, or the zero
// vector when the slice is empty.
func Mean(vs []Vec3) Vec3 {
	if len(vs) == 0 {
		return Zero
	}
	var sum Vec3
	for _, v := range vs {
		sum = sum.Add(v)
	}
	return sum.Scale(1 / float64(len(vs)))
}
