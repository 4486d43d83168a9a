package sim

import (
	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/vec"
)

// FlightStep is the complete state of one sampled control step, as
// handed to a FlightRecorder: everything the drones sensed, broadcast,
// decided and truly were at mission time Time. It is captured after
// the sense→broadcast→decide phases and before actuation, so Commands
// are exactly what the controllers derived from Readings and Broadcast.
//
// The slices alias the simulator's internal buffers and are valid only
// for the duration of the RecordStep call; recorders must copy what
// they keep.
type FlightStep struct {
	// Step is the integration step index; Time is Step·Dt.
	Step int
	Time float64
	// Bodies holds the true physical state of every drone (position,
	// velocity, crashed flag), indexed by drone ID.
	Bodies []Body
	// Readings holds each drone's current GPS fix — the perceived,
	// possibly spoofed position — rebuilt from the broadcast columns.
	// A crashed drone's Position is its last fix before the crash.
	Readings []gps.Reading
	// Commands holds the velocity command each drone's controller
	// issued this step; zero for crashed drones.
	Commands []vec.Vec3
	// Broadcast holds the states the active drones exchanged this
	// tick. Receiver i's neighbour row — the exact input its
	// controller saw — is Broadcast.Neighbors(i, ...).
	Broadcast *comms.Broadcast
}

// FlightRecorder is the mission-layer "black box": an observer that
// receives the full per-step state of one simulation run, plus its
// collision events and final result. It is threaded through
// RunOptions.Flight with a nil (disabled) default, the same pattern as
// telemetry.Recorder; sim.Run guards every call on a single nil check,
// so disabled flight recording costs at most one comparison per step
// on the hot path.
//
// Recorders are called synchronously from the simulation loop and need
// not be safe for concurrent use; one recorder serves one run.
type FlightRecorder interface {
	// BeginFlight is called once before the first step with the mission
	// and the spoofing plan in force (nil for a clean run).
	BeginFlight(m *Mission, spoof *gps.SpoofPlan)
	// RecordStep is called once per sample step (every
	// MissionConfig.SampleEvery ticks). See FlightStep for aliasing
	// rules.
	RecordStep(s FlightStep)
	// RecordCollision is called for every collision event, in time
	// order, as it happens.
	RecordCollision(c Collision)
	// EndFlight is called exactly once when the run ends: with the
	// result on success, or with a nil result and the divergence
	// failure otherwise.
	EndFlight(res *Result, err error)
}
