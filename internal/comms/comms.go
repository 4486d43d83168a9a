// Package comms models the inter-drone communication system of a
// distributed swarm (step 2 of the periodic loop in Fig. 1 of the
// paper): each tick, every member broadcasts its perceived physical
// state, and receives the states of the other members.
//
// The paper — like SwarmLab — assumes perfect, instantaneous state
// exchange. Broadcast holds one tick of it as shared columns, which is
// what the simulator's batch kernel reads. PerfectBus hands the same
// exchange out as one State row per receiver, for controllers that
// only implement the per-drone Command; its rows live in one flat
// reusable arena owned by the bus, so a steady-state tick allocates
// nothing. A bus instance is not safe for concurrent use.
package comms

import "swarmfuzz/internal/vec"

// State is the physical state a swarm member broadcasts: its perceived
// (GPS) position and current velocity. Note Position is the *perceived*
// position — under a GPS spoofing attack the broadcast carries the
// spoofed value, which is exactly how SPVs propagate.
type State struct {
	// ID is the broadcasting drone's index within the swarm.
	ID int
	// Position is the broadcast position in metres (ENU).
	Position vec.Vec3
	// Velocity is the broadcast velocity in m/s.
	Velocity vec.Vec3
	// Time is the mission time of the broadcast in seconds.
	Time float64
}

// Bus delivers one tick of state exchange. ExchangeInto takes the
// states published this tick — one per *active* drone; crashed drones
// stop broadcasting, so IDs need not be contiguous — and returns, for
// each publisher (positionally aligned with the input), the neighbour
// states it observes this tick. Senders and receivers are matched by
// State.ID. The returned slices never include the receiver's own state.
//
// The returned slices may be backed by storage the bus reuses: they
// are valid only until the next ExchangeInto call, and callers that
// retain observations across ticks must copy them.
//
// Each exchange's observations depend on that exchange's published
// states alone — no RNG stream, no history. A simulation is therefore
// fully described at every step by its drones' state, which is what
// lets a run resume from a recorded snapshot (sim.RunOptions.Prefix).
type Bus interface {
	ExchangeInto(published []State) [][]State
}

// PerfectBus delivers every broadcast instantly and reliably. It is the
// paper's communication model.
type PerfectBus struct {
	// flat holds all observations of one exchange contiguously; rows
	// holds one sub-slice of it per receiver.
	flat []State
	rows [][]State
}

var _ Bus = (*PerfectBus)(nil)

// NewPerfectBus returns a PerfectBus.
func NewPerfectBus() *PerfectBus { return &PerfectBus{} }

// ExchangeInto implements Bus. The returned slices alias the bus's
// arena and are valid until the next exchange.
func (b *PerfectBus) ExchangeInto(published []State) [][]State {
	n := len(published)
	// Reserve the full capacity up front so rows handed out
	// mid-exchange are never invalidated by growth.
	if cap(b.rows) < n {
		b.rows = make([][]State, n)
	}
	b.rows = b.rows[:n]
	if maxObs := n * (n - 1); b.flat == nil || cap(b.flat) < maxObs {
		b.flat = make([]State, 0, max(maxObs, 1))
	}
	b.flat = b.flat[:0]
	for i := 0; i < n; i++ {
		mark := len(b.flat)
		// Bulk-copy the runs between self-ID matches: same rows as
		// filtering one state at a time, but via memmove.
		id := published[i].ID
		run := 0
		for j := 0; j < n; j++ {
			if published[j].ID == id {
				b.flat = append(b.flat, published[run:j]...)
				run = j + 1
			}
		}
		b.flat = append(b.flat, published[run:n]...)
		// The full slice expression caps the row so appends by callers
		// cannot clobber the next receiver's observations.
		b.rows[i] = b.flat[mark:len(b.flat):len(b.flat)]
	}
	return b.rows
}
