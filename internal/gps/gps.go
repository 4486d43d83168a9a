// Package gps models the GPS receiver of each swarm member and the GPS
// spoofing attack studied in the paper.
//
// A Sensor converts a drone's true position into a perceived position:
// true position plus a constant per-receiver bias and zero-mean Gaussian
// noise (the "standard GPS offset" the paper's defenses tolerate). A
// Spoofer implements the paper's horizontal constant spoofing: during
// the attack window [Start, Start+Duration] the perceived position is
// additionally shifted by a constant horizontal offset of magnitude
// Distance, perpendicular to the mission's migration axis.
//
// The spoofed reading is used both by the target drone's own controller
// and broadcast to the rest of the swarm, exactly as in SwarmLab's
// software fault injection.
package gps

import (
	"fmt"
	"math"

	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/vec"
)

// Direction is the lateral spoofing direction θ relative to the
// migration axis. Right means the target drone's perceived position is
// shifted to the right of the direction of travel, which makes the
// drone physically deviate to the left and drags attracted neighbours
// to the right; Left is the mirror image.
type Direction int

// Spoofing directions. The integer values match the paper's θ ∈ {+1, −1}.
const (
	Right Direction = 1
	Left  Direction = -1
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Right:
		return "right"
	case Left:
		return "left"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Valid reports whether d is one of the two defined directions.
func (d Direction) Valid() bool { return d == Right || d == Left }

// Reading is one GPS fix.
type Reading struct {
	// Position is the perceived position (true + bias + noise + spoof).
	Position vec.Vec3
	// Time is the mission time of the fix in seconds.
	Time float64
	// Spoofed reports whether a spoofing offset was applied. It exists
	// for test assertions and analysis only — controllers must not read
	// it (a real victim cannot tell).
	Spoofed bool
}

// Sensor models one drone's GPS receiver: a Receiver plus the seeded
// stream its per-fix noise is drawn from.
type Sensor struct {
	rx       Receiver
	noiseStd float64
	src      *rng.Source
}

// Receiver is the fixed part of a GPS receiver: its constant bias and
// whether its fixes carry noise.
type Receiver struct {
	bias  vec.Vec3
	noisy bool
}

// Noise is the horizontal noise of one fix, in metres.
type Noise struct{ X, Y float64 }

// NewSensor returns a Sensor with the given constant bias magnitude and
// per-fix Gaussian noise standard deviation (both in metres, horizontal
// only). The bias direction is drawn once from src.
func NewSensor(biasMag, noiseStd float64, src *rng.Source) *Sensor {
	angle := src.Uniform(0, 2*math.Pi)
	bias := vec.New(biasMag*math.Cos(angle), biasMag*math.Sin(angle), 0)
	return &Sensor{rx: Receiver{bias: bias, noisy: noiseStd > 0}, noiseStd: noiseStd, src: src}
}

// Receiver returns the sensor's bias and noise switch.
func (s *Sensor) Receiver() Receiver { return s.rx }

// Noise draws the next fix's noise from the sensor's stream. A
// noise-free sensor draws nothing and returns the zero Noise, which
// Perceive then ignores.
func (s *Sensor) Noise() Noise {
	if !s.rx.noisy {
		return Noise{}
	}
	x := s.src.Gaussian(0, s.noiseStd)
	return Noise{X: x, Y: s.src.Gaussian(0, s.noiseStd)}
}

// Perceive returns the perceived position of truth with noise n as
// the fix's noise. The bias is added first, then the noise; a receiver
// without noise skips the second add, so a −0 coordinate stays −0.
func (r Receiver) Perceive(truth vec.Vec3, n Noise) vec.Vec3 {
	p := truth.Add(r.bias)
	if r.noisy {
		p = p.Add(vec.New(n.X, n.Y, 0))
	}
	return p
}

// SpoofPlan describes one horizontal constant spoofing attack: the
// test-run tuple ⟨T, t_s, Δt, θ⟩ from the paper plus the spoofing
// distance d that SwarmFuzz takes as an input.
type SpoofPlan struct {
	// Target is the index of the drone whose GPS is spoofed.
	Target int
	// Start is the spoofing start time t_s in seconds.
	Start float64
	// Duration is the spoofing duration Δt in seconds.
	Duration float64
	// Direction is the lateral direction θ.
	Direction Direction
	// Distance is the constant spoofing deviation d in metres.
	Distance float64
}

// Active reports whether the spoofing signal is being transmitted at
// mission time t.
func (p SpoofPlan) Active(t float64) bool {
	return t >= p.Start && t < p.Start+p.Duration
}

// End returns t_s + Δt.
func (p SpoofPlan) End() float64 { return p.Start + p.Duration }

// shift is the spoofing offset added to the perceived position inside
// the attack window, given the mission's horizontal migration axis. It
// is perpendicular to the axis: Direction selects which side the
// perceived position is pushed toward.
func (p SpoofPlan) shift(migrationAxis vec.Vec3) vec.Vec3 {
	return migrationAxis.PerpXY().Scale(float64(p.Direction) * p.Distance)
}

// Validate returns an error when the plan is not executable.
func (p SpoofPlan) Validate() error {
	switch {
	case p.Target < 0:
		return fmt.Errorf("gps: negative target drone %d", p.Target)
	case p.Start < 0:
		return fmt.Errorf("gps: negative start time %v", p.Start)
	case p.Duration < 0:
		return fmt.Errorf("gps: negative duration %v", p.Duration)
	case !p.Direction.Valid():
		return fmt.Errorf("gps: invalid direction %d", int(p.Direction))
	case p.Distance < 0:
		return fmt.Errorf("gps: negative spoofing distance %v", p.Distance)
	}
	return nil
}

// String implements fmt.Stringer.
func (p SpoofPlan) String() string {
	return fmt.Sprintf("spoof{target=%d t_s=%.2fs Δt=%.2fs θ=%s d=%.1fm}",
		p.Target, p.Start, p.Duration, p.Direction, p.Distance)
}

// Spoofer executes a SpoofPlan; a nil Spoofer applies no attack.
type Spoofer struct {
	plan SpoofPlan
	// off is the in-window offset, the same every step, so it is
	// computed once.
	off vec.Vec3
}

// NewSpoofer returns a Spoofer executing plan against a mission whose
// horizontal migration axis is axis.
func NewSpoofer(plan SpoofPlan, axis vec.Vec3) *Spoofer {
	return &Spoofer{plan: plan, off: plan.shift(axis)}
}

// Plan returns the plan the spoofer executes.
func (sp *Spoofer) Plan() SpoofPlan { return sp.plan }

// Offset returns the shift the plan adds to drone's fix at mission
// time t, and whether it adds one: it adds none to other drones,
// outside the attack window or under a zero offset.
func (sp *Spoofer) Offset(drone int, t float64) (vec.Vec3, bool) {
	if sp == nil || drone != sp.plan.Target || sp.off == vec.Zero || !sp.plan.Active(t) {
		return vec.Zero, false
	}
	return sp.off, true
}
