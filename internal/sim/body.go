// Package sim is a deterministic fixed-step drone swarm simulator in
// the style of SwarmLab. It provides the physical substrate the paper's
// evaluation runs on: quadcopter bodies with a velocity-tracking inner
// control loop, a world with cylindrical obstacles, mission generation
// with seeded randomness, the lockstep sense→exchange→decide→actuate
// loop of Fig. 1, collision detection, and trajectory recording.
//
// A mission run is a pure function of (MissionConfig, seed, attack
// plan, controller): re-running with identical inputs reproduces the
// trajectory bit for bit, which is what makes gradient-based fuzzing on
// top of the simulator meaningful.
package sim

import (
	"fmt"

	"swarmfuzz/internal/vec"
)

// BodyParams describe the closed inner control loop of one quadcopter:
// the drone tracks a commanded velocity with a first-order response
// limited by maximum acceleration and speed. This matches the level of
// abstraction of SwarmLab's point-mass drone with a PID velocity
// controller; SPVs arise in the swarm control layer above, not in the
// rotor dynamics.
type BodyParams struct {
	// Tau is the velocity response time constant in seconds.
	Tau float64
	// MaxAccel is the acceleration limit in m/s².
	MaxAccel float64
	// MaxSpeed is the airspeed limit in m/s.
	MaxSpeed float64
}

// DefaultBodyParams returns parameters for the 0.296 kg quadcopter used
// throughout the paper's evaluation.
func DefaultBodyParams() BodyParams {
	return BodyParams{Tau: 0.3, MaxAccel: 6, MaxSpeed: 8}
}

// Validate returns an error if the parameters are not physical.
func (p BodyParams) Validate() error {
	switch {
	case p.Tau <= 0:
		return fmt.Errorf("sim: body Tau %v must be positive", p.Tau)
	case p.MaxAccel <= 0:
		return fmt.Errorf("sim: body MaxAccel %v must be positive", p.MaxAccel)
	case p.MaxSpeed <= 0:
		return fmt.Errorf("sim: body MaxSpeed %v must be positive", p.MaxSpeed)
	}
	return nil
}

// Body is the true physical state of one drone.
type Body struct {
	// Pos is the true position in metres (ENU).
	Pos vec.Vec3
	// Vel is the true velocity in m/s.
	Vel vec.Vec3
	// Crashed marks a drone that has collided; crashed drones no longer
	// move, broadcast, or participate in collision checks.
	Crashed bool
}

// StepLimits are a body's parameters and the integration step in the
// form Body.Step consumes them: the speed and acceleration caps with
// their norm gates built, and 1/Tau. A Stepper builds them once per
// run instead of once per drone-step.
type StepLimits struct {
	speed, accel vec.Limit
	invTau, dt   float64
}

// Limits returns p's StepLimits for an integration step of dt seconds.
func (p BodyParams) Limits(dt float64) StepLimits {
	return StepLimits{
		speed:  vec.NewLimit(p.MaxSpeed),
		accel:  vec.NewLimit(p.MaxAccel),
		invTau: 1 / p.Tau,
		dt:     dt,
	}
}

// Step advances the body by one integration step of l while tracking
// the commanded velocity cmd. The velocity relaxes toward cmd with
// time constant Tau, subject to MaxAccel, and is clamped to MaxSpeed.
// Crashed bodies do not move.
func (b *Body) Step(cmd vec.Vec3, l *StepLimits) {
	if b.Crashed {
		return
	}
	cmd = l.speed.Clamp(cmd)
	accel := l.accel.Clamp(cmd.Sub(b.Vel).Scale(l.invTau))
	b.Vel = l.speed.Clamp(b.Vel.Add(accel.Scale(l.dt)))
	b.Pos = b.Pos.Add(b.Vel.Scale(l.dt))
}
