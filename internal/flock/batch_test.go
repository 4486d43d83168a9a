package flock

import (
	"testing"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

// batchFixture builds a random broadcast layout plus the exact scalar
// equivalents: per-receiver Perception and PerfectBus-ordered neighbour
// rows (every active j ≠ i, ascending). Positions cluster tightly
// enough that repulsion, attraction, friction and obstacle terms all
// fire across the trials, and some drones are parked crashed or
// coincident to hit the skip paths.
type batchFixture struct {
	bc  comms.Broadcast
	per []sim.Perception
	nbr [][]comms.State
}

func makeBatchFixture(src *rng.Source, n int, w *sim.World) *batchFixture {
	f := &batchFixture{
		bc: comms.Broadcast{
			Pos:    make([]vec.Vec3, n),
			Vel:    make([]vec.Vec3, n),
			Active: make([]bool, n),
			Time:   src.Uniform(0, 100),
		},
	}
	pos := make([]vec.Vec3, n)
	vel := make([]vec.Vec3, n)
	for i := 0; i < n; i++ {
		// Spread some drones near the obstacle so shill terms fire, and
		// keep the cluster tight enough for repulsion/friction.
		pos[i] = vec.New(src.Uniform(-6, 6), src.Uniform(85, 115), src.Uniform(8, 12))
		vel[i] = vec.New(src.Uniform(-4, 4), src.Uniform(-4, 4), src.Uniform(-1, 1))
		f.bc.Active[i] = src.Uniform(0, 1) > 0.15
	}
	if n >= 2 {
		pos[n-1] = pos[0] // coincident pair: dist == 0 skip path
	}
	// One drone far out so the attraction term (farthest beyond RAtt)
	// fires for most receivers.
	if n >= 3 {
		pos[n-2] = vec.New(src.Uniform(30, 60), src.Uniform(40, 70), 10)
	}
	copy(f.bc.Pos, pos)
	copy(f.bc.Vel, vel)
	f.per = make([]sim.Perception, n)
	f.nbr = make([][]comms.State, n)
	for i := 0; i < n; i++ {
		if !f.bc.Active[i] {
			continue
		}
		f.per[i] = sim.Perception{
			ID:       i,
			GPS:      gps.Reading{Position: pos[i], Time: f.bc.Time},
			Velocity: vel[i],
			Time:     f.bc.Time,
		}
		for j := 0; j < n; j++ {
			if j == i || !f.bc.Active[j] {
				continue
			}
			f.nbr[i] = append(f.nbr[i], comms.State{
				ID: j, Position: pos[j], Velocity: vel[j], Time: f.bc.Time,
			})
		}
	}
	return f
}

// TestBatchCommandsMatchesCommand pins the bit-identity contract of the
// SoA path: for random layouts — obstacle proximity, crashed drones,
// coincident fixes, far stragglers — BatchCommands writes, per active
// drone, exactly the bits Command returns for the PerfectBus neighbour
// row, and zeroes for inactive drones.
func TestBatchCommandsMatchesCommand(t *testing.T) {
	c := MustNew(DefaultParams())
	w := testWorld()
	src := rng.New(17)
	for trial := 0; trial < 40; trial++ {
		n := 2 + int(src.Uniform(0, 60))
		f := makeBatchFixture(src, n, w)
		cmds := make([]vec.Vec3, n)
		c.BatchCommands(&f.bc, w, c.NewBatchScratch(n), cmds)
		for i := 0; i < n; i++ {
			var want vec.Vec3
			if f.bc.Active[i] {
				want = c.Command(f.per[i], f.nbr[i], w)
			}
			got := cmds[i]
			if got != want {
				t.Fatalf("trial %d drone %d (active=%v): batch %v, scalar %v",
					trial, i, f.bc.Active[i], got, want)
			}
		}
	}
}

// TestBatchCommandsZeroAlloc pins that the SoA command pass allocates
// nothing: the whole point of the batch path is to skip the per-tick
// State materialisation.
func TestBatchCommandsZeroAlloc(t *testing.T) {
	c := MustNew(DefaultParams())
	w := testWorld()
	src := rng.New(9)
	f := makeBatchFixture(src, 50, w)
	cmds := make([]vec.Vec3, 50)
	sc := c.NewBatchScratch(50)
	allocs := testing.AllocsPerRun(20, func() {
		c.BatchCommands(&f.bc, w, sc, cmds)
	})
	if allocs != 0 {
		t.Errorf("BatchCommands allocates %v objects/op, want 0", allocs)
	}
}
