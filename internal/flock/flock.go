// Package flock implements the distributed swarm control algorithm the
// paper evaluates: the Vásárhelyi et al. 2018 flocking model ("Vicsek
// algorithm") as implemented in SwarmLab.
//
// Each drone independently derives a desired-velocity command as the
// sum of sub-velocities, one per high-level goal (§II of the paper):
//
//   - mission-driven: a migration term of magnitude VFlock toward the
//     shared destination;
//   - collision-free: a short-range repulsion term between drones and a
//     shill-agent obstacle avoidance term that pushes away from
//     obstacle surfaces;
//   - cohesive formation: a long-range attraction term toward
//     neighbours that drift too far, plus a velocity-alignment
//     (friction) term.
//
// Every term uses GPS-perceived positions only — the drone's own fix
// and the positions neighbours broadcast — which is precisely the
// design choice Swarm Propagation Vulnerabilities exploit: a spoofed
// fix perturbs the attraction/repulsion field of every other member.
package flock

import (
	"fmt"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

// Params are the gains and ranges of the flocking controller. The
// defaults are tuned (see DESIGN.md) so that the paper's mission
// configurations never collide without an attack, while well-timed
// 5–10 m GPS spoofing can defeat the obstacle avoidance margin.
type Params struct {
	// VFlock is the preferred migration speed in m/s.
	VFlock float64
	// VMax caps the magnitude of the final velocity command.
	VMax float64

	// RRep is the inter-drone repulsion radius; pairs closer than this
	// repel. PRep is the linear repulsion gain (1/s).
	RRep, PRep float64

	// RAtt is the cohesion radius. A drone attracts toward its
	// *farthest* neighbour when that neighbour drifts beyond RAtt —
	// the cohesive-formation goal reacts to the worst formation
	// violation. PAtt is the linear attraction gain (1/s) and VAttMax
	// caps the attraction sub-velocity.
	RAtt, PAtt, VAttMax float64

	// RFrict is the velocity-alignment radius and CFrict the alignment
	// gain applied to the mean neighbour velocity difference.
	RFrict, CFrict float64

	// RShill is the obstacle detection range measured from the
	// obstacle surface. An obstacle within range projects a "shill
	// agent" on its surface moving outward at VShill; the drone aligns
	// its velocity with the shill agent with gain PShill, linearly
	// stronger as the drone approaches the surface (Vásárhelyi et al.
	// 2018). Unlike a potential barrier this term saturates — the
	// avoidance margin is soft, which is why strategically-timed
	// spoofing can defeat it.
	RShill, PShill, VShill float64

	// KAlt is the altitude-hold gain toward the destination altitude.
	KAlt float64
}

// DefaultParams returns the tuned parameterisation used by the
// reproduction experiments. The tuning (documented in DESIGN.md)
// realises the balance the paper describes in §III: the swarm is
// sparse, cohesion only reacts to unusually long inter-drone
// distances, and the obstacle-avoidance sub-velocity saturates low
// enough that the interaction sub-velocities triggered by a 5–10 m
// spoofed broadcast can exceed it at the wrong moment — while clean
// missions (which SwarmFuzz's initial test verifies per mission)
// stay collision-free.
func DefaultParams() Params {
	return Params{
		VFlock:  2.0,
		VMax:    4.0,
		RRep:    5.0,
		PRep:    0.8,
		RAtt:    28.0,
		PAtt:    0.5,
		VAttMax: 4.0,
		RFrict:  20.0,
		CFrict:  0.4,
		RShill:  12.0,
		PShill:  1.45,
		VShill:  2.6,
		KAlt:    0.8,
	}
}

// Validate returns an error describing the first invalid parameter.
func (p Params) Validate() error {
	switch {
	case p.VFlock <= 0:
		return fmt.Errorf("flock: VFlock %v must be positive", p.VFlock)
	case p.VMax < p.VFlock:
		return fmt.Errorf("flock: VMax %v must be at least VFlock %v", p.VMax, p.VFlock)
	case p.RRep <= 0 || p.PRep < 0:
		return fmt.Errorf("flock: repulsion radius/gain invalid (%v, %v)", p.RRep, p.PRep)
	case p.RAtt < p.RRep:
		return fmt.Errorf("flock: attraction radius %v must be >= repulsion radius %v", p.RAtt, p.RRep)
	case p.PAtt < 0 || p.VAttMax < 0:
		return fmt.Errorf("flock: attraction gain/cap invalid (%v, %v)", p.PAtt, p.VAttMax)
	case p.RFrict < 0 || p.CFrict < 0:
		return fmt.Errorf("flock: friction radius/gain invalid (%v, %v)", p.RFrict, p.CFrict)
	case p.RShill <= 0 || p.PShill < 0 || p.VShill < 0:
		return fmt.Errorf("flock: shill radius/gain/speed invalid (%v, %v, %v)",
			p.RShill, p.PShill, p.VShill)
	case p.KAlt < 0:
		return fmt.Errorf("flock: altitude gain %v must be non-negative", p.KAlt)
	}
	return nil
}

// Terms is the decomposition of one command into per-goal
// sub-velocities. SwarmFuzz's SVG construction re-evaluates these terms
// with perturbed neighbour positions to detect malicious influence.
type Terms struct {
	// Migration drives the drone toward the destination (goal 1).
	Migration vec.Vec3
	// Repulsion pushes apart close drone pairs (goal 2).
	Repulsion vec.Vec3
	// Attraction pulls distant pairs together (goal 3).
	Attraction vec.Vec3
	// Friction aligns velocities with neighbours (goal 3).
	Friction vec.Vec3
	// Obstacle pushes away from obstacle surfaces (goal 2).
	Obstacle vec.Vec3
	// Altitude holds the flight altitude.
	Altitude vec.Vec3
}

// Sum returns the unclamped sum of all sub-velocities.
func (t Terms) Sum() vec.Vec3 {
	return t.Migration.
		Add(t.Repulsion).
		Add(t.Attraction).
		Add(t.Friction).
		Add(t.Obstacle).
		Add(t.Altitude)
}

// Controller implements sim.Controller with the flocking model. It is
// immutable: one instance serves any number of drones and runs.
type Controller struct {
	p Params
	// bnd, vMax and vAttMax are the batch kernel's gates and caps,
	// built once from p.
	bnd           soaBounds
	vMax, vAttMax vec.Limit
}

var _ sim.Controller = (*Controller)(nil)

// New returns a Controller with the given parameters.
func New(p Params) (*Controller, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Controller{
		p:       p,
		bnd:     newSoaBounds(p),
		vMax:    vec.NewLimit(p.VMax),
		vAttMax: vec.NewLimit(p.VAttMax),
	}, nil
}

// Command implements sim.Controller.
func (c *Controller) Command(p sim.Perception, neighbors []comms.State, w *sim.World) vec.Vec3 {
	return c.Terms(p, neighbors, w).Sum().ClampNorm(c.p.VMax)
}

// Terms computes the per-goal sub-velocity decomposition of the command
// for the given perception. Command is Terms(...).Sum() clamped to VMax.
func (c *Controller) Terms(p sim.Perception, neighbors []comms.State, w *sim.World) Terms {
	pos := p.GPS.Position
	var t Terms

	// Goal 1 — mission-driven migration at VFlock toward the
	// destination, horizontal only (altitude handled separately).
	toDest := w.Destination.Sub(pos).Horizontal()
	if toDest.Norm() > w.DestRadius/2 {
		t.Migration = toDest.Unit().Scale(c.p.VFlock)
	}

	// Goals 2+3 — pairwise interaction terms from broadcast states.
	// Repulsion sums over every too-close pair; cohesion reacts to the
	// single worst formation violation (the farthest neighbour beyond
	// RAtt), so its magnitude does not scale with the swarm size.
	var frictSum vec.Vec3
	frictCount := 0
	var farDir vec.Vec3
	farDist := 0.0
	for _, nb := range neighbors {
		rel := nb.Position.Sub(pos)
		dist := rel.Norm()
		if dist == 0 {
			continue // coincident fix: no defined direction
		}
		dir := rel.Scale(1 / dist)
		if dist < c.p.RRep {
			t.Repulsion = t.Repulsion.Add(dir.Scale(-c.p.PRep * (c.p.RRep - dist)))
		}
		if dist > farDist {
			farDist, farDir = dist, dir
		}
		if dist < c.p.RFrict {
			frictSum = frictSum.Add(nb.Velocity.Sub(p.Velocity))
			frictCount++
		}
	}
	if farDist > c.p.RAtt {
		t.Attraction = farDir.Scale(c.p.PAtt * (farDist - c.p.RAtt)).ClampNorm(c.p.VAttMax)
	}
	if frictCount > 0 {
		t.Friction = frictSum.Scale(c.p.CFrict / float64(frictCount))
	}

	// Goal 2 — shill-agent obstacle avoidance. Each obstacle within
	// RShill projects a virtual agent on its surface moving outward at
	// VShill; the drone aligns with it, with a gain that rises
	// linearly as the drone approaches the surface. The term saturates
	// at PShill·(VShill + |v|), so a sufficiently strong opposing
	// sub-velocity can defeat it — the soft margin SPVs exploit.
	for _, o := range w.Obstacles {
		s := o.SurfaceDistance(pos)
		if s >= c.p.RShill {
			continue
		}
		outward := o.OutwardNormal(pos)
		if outward == vec.Zero {
			// Perceived position exactly on the axis: push along the
			// reverse migration axis as a deterministic fallback.
			outward = t.Migration.Neg().Unit()
		}
		gain := c.p.PShill * (1 - s/c.p.RShill)
		if s < 0 {
			gain = c.p.PShill // saturate inside the obstacle
		}
		shillVel := outward.Scale(c.p.VShill)
		t.Obstacle = t.Obstacle.Add(shillVel.Sub(p.Velocity).Scale(gain))
	}

	// Altitude hold toward the destination altitude.
	t.Altitude = vec.New(0, 0, c.p.KAlt*(w.Destination.Z-pos.Z))

	return t
}
