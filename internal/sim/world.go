package sim

import (
	"fmt"
	"math"

	"swarmfuzz/internal/vec"
)

// Obstacle is a vertical cylinder, the obstacle type used by
// SwarmLab's Vicsek arena. The Z component of Center is ignored.
type Obstacle struct {
	// Center is the cylinder axis position (Z ignored).
	Center vec.Vec3
	// Radius is the cylinder radius in metres.
	Radius float64
}

// SurfaceDistance returns the horizontal distance from p to the
// cylinder surface. It is negative inside the obstacle.
func (o Obstacle) SurfaceDistance(p vec.Vec3) float64 {
	return p.HorizontalDist(o.Center) - o.Radius
}

// AxisDistSq returns the squared horizontal distance from p to the
// cylinder axis, dx²+dy² over the very differences SurfaceDistance
// hands to Hypot.
func (o Obstacle) AxisDistSq(p vec.Vec3) float64 {
	dx, dy := p.X-o.Center.X, p.Y-o.Center.Y
	return dx*dx + dy*dy
}

// SurfaceGate returns the squared-distance gate for r ≥ 0:
// AxisDistSq(p) ≥ SurfaceGate(r) = (r+Radius)²·(1+1e-9) proves that
// the rounded SurfaceDistance(p) > r, without taking a square root.
// The bound puts the exact horizontal distance ~5e-10·(r+Radius)
// beyond r+Radius. The roundings of the squares, the bound, Hypot and
// the subtraction of Radius take back at most a few ulps of that, so
// SurfaceDistance(p) ≥ r + 4e-10·(r+Radius). Callers build the gate
// once per threshold. A failed test means undecided, not closer; the
// gate is NaN outside vec.PaddedSq's range, and NaN positions fail it
// too.
func (o Obstacle) SurfaceGate(r float64) float64 {
	return vec.PaddedSq(r+o.Radius, 1e-9)
}

// OutwardNormal returns the horizontal unit vector pointing from the
// obstacle axis toward p. For a point exactly on the axis it returns
// the zero vector.
func (o Obstacle) OutwardNormal(p vec.Vec3) vec.Vec3 {
	return p.Sub(o.Center).Horizontal().Unit()
}

// World is the static environment of a mission.
type World struct {
	// Obstacles is the set of on-path obstacles. The paper evaluates
	// single-obstacle missions but the design supports several (§VI).
	Obstacles []Obstacle
	// Destination is the shared mission waypoint.
	Destination vec.Vec3
	// DestRadius is the arrival threshold around Destination.
	DestRadius float64
}

// NearestObstacle returns the index of the obstacle nearest to p (by
// surface distance) and that distance. With no obstacles it returns
// (-1, +Inf).
func (w *World) NearestObstacle(p vec.Vec3) (int, float64) {
	best, bestDist := -1, math.Inf(1)
	for i, o := range w.Obstacles {
		if d := o.SurfaceDistance(p); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

// Validate returns an error if the world is not usable.
func (w *World) Validate() error {
	for i, o := range w.Obstacles {
		if o.Radius <= 0 {
			return fmt.Errorf("sim: obstacle %d has non-positive radius %v", i, o.Radius)
		}
	}
	if w.DestRadius <= 0 {
		return fmt.Errorf("sim: destination radius %v must be positive", w.DestRadius)
	}
	return nil
}
