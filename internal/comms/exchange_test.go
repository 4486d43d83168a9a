package comms

import (
	"fmt"
	"testing"

	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/vec"
)

// randomPublishes builds a deterministic random sequence of publish
// ticks: drone count varies per tick (drones "crash" and stop
// broadcasting, so IDs are non-contiguous), positions wander, and a
// constant offset makes IDs non-zero-based in half the sequences.
func randomPublishes(src *rng.Source, ticks, maxN, idOffset int) [][]State {
	seq := make([][]State, ticks)
	for t := 0; t < ticks; t++ {
		var pub []State
		for id := 0; id < maxN; id++ {
			// Drop ~25% of drones per tick to exercise missing and
			// non-contiguous IDs.
			if src.Uniform(0, 1) < 0.25 {
				continue
			}
			pub = append(pub, State{
				ID:       id + idOffset,
				Position: vec.New(src.Uniform(-10, 10), src.Uniform(-10, 10), src.Uniform(0, 5)),
				Velocity: vec.New(src.Uniform(-2, 2), src.Uniform(-2, 2), 0),
				Time:     float64(t),
			})
		}
		seq[t] = pub
	}
	return seq
}

func diffRows(t *testing.T, tick int, want, got [][]State) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("tick %d: %d receivers vs %d", tick, len(want), len(got))
	}
	for i := range want {
		if len(want[i]) != len(got[i]) {
			t.Fatalf("tick %d receiver %d: %d observations vs %d", tick, i, len(want[i]), len(got[i]))
		}
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("tick %d receiver %d obs %d: %+v vs %+v", tick, i, j, want[i][j], got[i][j])
			}
		}
	}
}

// legacyExchange is the original filter-one-state-at-a-time
// PerfectBus exchange: every receiver observes every other publisher,
// in publish order, in freshly allocated rows.
func legacyExchange(published []State) [][]State {
	out := make([][]State, len(published))
	for i, self := range published {
		obs := make([]State, 0, len(published))
		for _, s := range published {
			if s.ID != self.ID {
				obs = append(obs, s)
			}
		}
		out[i] = obs
	}
	return out
}

// TestExchangeIntoMatchesExchange drives the arena-backed
// PerfectBus.ExchangeInto through a random publish sequence and
// requires element-wise the legacy exchange's observations at every
// tick, under crashed and non-contiguous IDs.
func TestExchangeIntoMatchesExchange(t *testing.T) {
	for _, idOffset := range []int{0, 7} {
		t.Run(fmt.Sprintf("perfect/offset%d", idOffset), func(t *testing.T) {
			bus := NewPerfectBus()
			seq := randomPublishes(rng.Derive(99, "perfect"), 40, 9, idOffset)
			for tick, pub := range seq {
				diffRows(t, tick, legacyExchange(pub), bus.ExchangeInto(pub))
			}
		})
	}
}

// TestExchangeIntoRowsAreCapped verifies a caller appending to one
// arena-backed row cannot clobber another receiver's observations.
func TestExchangeIntoRowsAreCapped(t *testing.T) {
	bus := NewPerfectBus()
	pub := publish(4, 0)
	rows := bus.ExchangeInto(pub)
	grown := append(rows[0], State{ID: 999})
	_ = grown
	for j, s := range rows[1] {
		if s.ID == 999 {
			t.Fatalf("append to row 0 leaked into row 1 at %d", j)
		}
	}
}

// TestExchangeIntoSteadyStateAllocs verifies the hot path allocates
// nothing once the arena is warm.
func TestExchangeIntoSteadyStateAllocs(t *testing.T) {
	pub := publish(10, 0)
	bus := NewPerfectBus()
	// Warm the arena.
	for i := 0; i < 3; i++ {
		bus.ExchangeInto(pub)
	}
	allocs := testing.AllocsPerRun(50, func() {
		bus.ExchangeInto(pub)
	})
	if allocs != 0 {
		t.Errorf("ExchangeInto allocates %v objects/op in steady state, want 0", allocs)
	}
}

// TestBroadcastNeighborsMatchPerfectBus pins Broadcast.Neighbors to the
// PerfectBus rows of the same tick: publishing every active column
// entry in index order and exchanging gives receiver i exactly
// Neighbors(i), which is what lets a flight log rebuild the rows its
// terms need from the columns.
func TestBroadcastNeighborsMatchPerfectBus(t *testing.T) {
	src := rng.Derive(3, "neighbors")
	bus := NewPerfectBus()
	var row []State
	for tick := 0; tick < 30; tick++ {
		n := 1 + src.Intn(9)
		bc := Broadcast{Pos: make([]vec.Vec3, n), Vel: make([]vec.Vec3, n), Active: make([]bool, n), Time: float64(tick)}
		var pub []State
		for j := 0; j < n; j++ {
			bc.Pos[j] = vec.New(src.Uniform(-10, 10), src.Uniform(-10, 10), src.Uniform(0, 5))
			bc.Vel[j] = vec.New(src.Uniform(-2, 2), src.Uniform(-2, 2), 0)
			if bc.Active[j] = src.Uniform(0, 1) >= 0.25; bc.Active[j] {
				pub = append(pub, bc.State(j))
			}
		}
		rows := bus.ExchangeInto(pub)
		for k, self := range pub {
			row = bc.Neighbors(self.ID, row)
			diffRows(t, tick, [][]State{rows[k]}, [][]State{row})
		}
	}
}
