package comms

import "swarmfuzz/internal/vec"

// Broadcast is the structure-of-arrays view of one tick's state
// exchange under perfect connectivity, used by the simulator's batch
// decide path. Where Bus hands every receiver its own row of State copies,
// a Broadcast is the single shared column store those rows would all
// be copied from: batch-aware controllers read neighbours straight out
// of the flat arrays and skip the receiver by index, which eliminates
// the O(n²) per-tick State materialisation entirely.
//
// The columns are flat [drone][axis] float64 storage — vec.Vec3 is
// three contiguous float64s, so Pos[i] is exactly the 3i..3i+2 slice
// of the axis-major layout — holding one entry per drone.
//
// The neighbour set and iteration order are exactly PerfectBus's: for
// receiver i, every active j ≠ i in ascending index order. Controllers
// that consume a Broadcast must preserve that order so their commands
// are bit-identical to the State-row path.
type Broadcast struct {
	// Pos holds the broadcast (perceived) positions.
	Pos []vec.Vec3
	// Vel holds the broadcast velocities.
	Vel []vec.Vec3
	// Active reports, per drone, whether it broadcasts this tick;
	// crashed drones neither publish nor receive. Pos/Vel entries of
	// inactive drones are stale and must not be read.
	Active []bool
	// Time is the mission time of the tick in seconds.
	Time float64
}

// N returns the number of drones in the broadcast.
func (b *Broadcast) N() int { return len(b.Active) }
