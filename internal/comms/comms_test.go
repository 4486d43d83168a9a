package comms

import (
	"testing"

	"swarmfuzz/internal/vec"
)

func publish(n int, tick float64) []State {
	states := make([]State, n)
	for i := range states {
		states[i] = State{
			ID:       i,
			Position: vec.New(float64(i), tick, 0),
			Velocity: vec.New(0, 1, 0),
			Time:     tick,
		}
	}
	return states
}

func TestPerfectBusDeliversAllOthers(t *testing.T) {
	b := NewPerfectBus()
	obs := b.ExchangeInto(publish(4, 0))
	if len(obs) != 4 {
		t.Fatalf("got %d receivers, want 4", len(obs))
	}
	for i, o := range obs {
		if len(o) != 3 {
			t.Errorf("receiver %d observed %d states, want 3", i, len(o))
		}
		for _, s := range o {
			if s.ID == i {
				t.Errorf("receiver %d observed its own state", i)
			}
		}
	}
}

func TestPerfectBusFreshStates(t *testing.T) {
	b := NewPerfectBus()
	b.ExchangeInto(publish(3, 0))
	obs := b.ExchangeInto(publish(3, 1))
	for i, o := range obs {
		for _, s := range o {
			if s.Time != 1 {
				t.Errorf("receiver %d saw stale state (t=%v)", i, s.Time)
			}
		}
	}
}

func TestPerfectBusSingleDrone(t *testing.T) {
	b := NewPerfectBus()
	obs := b.ExchangeInto(publish(1, 0))
	if len(obs) != 1 || len(obs[0]) != 0 {
		t.Errorf("single drone should observe nothing, got %v", obs)
	}
}
