package sim_test

import (
	"errors"
	"fmt"
	"testing"

	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/sim"
)

// equivMissions builds k same-shape missions with consecutive seeds.
func equivMissions(t *testing.T, n int, base uint64, k int) []*sim.Mission {
	t.Helper()
	missions := make([]*sim.Mission, k)
	for i := range missions {
		m, err := sim.NewMission(sim.DefaultMissionConfig(n, base+uint64(i)))
		if err != nil {
			t.Fatalf("mission %d: %v", i, err)
		}
		missions[i] = m
	}
	return missions
}

// TestBatchStepperMatchesSequentialRuns pins the Stepper's batch decide
// path to per-drone sequential Command calls over mission sets: each of
// k missions, clean and spoofed, gives the bit-identical Result and step
// count on both paths, and sim.Run returns that same Result — across
// swarm sizes on both sides of the collision grid crossover.
func TestBatchStepperMatchesSequentialRuns(t *testing.T) {
	ctrl := flock.MustNew(flock.DefaultParams())
	cases := []struct {
		name  string
		n     int
		base  uint64
		k     int
		spoof func(i int) *gps.SpoofPlan
	}{
		{name: "clean_n5_k8", n: 5, base: 1, k: 8},
		{name: "clean_n26_k3", n: 26, base: 11, k: 3},
		{name: "spoofed_n5_k6", n: 5, base: 21, k: 6, spoof: func(i int) *gps.SpoofPlan {
			if i%2 == 1 {
				return nil // mixed set: odd missions run clean
			}
			return &gps.SpoofPlan{Target: i % 5, Start: 10, Duration: 15, Direction: gps.Left, Distance: 8}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, m := range equivMissions(t, tc.n, tc.base, tc.k) {
				var spoof *gps.SpoofPlan
				if tc.spoof != nil {
					spoof = tc.spoof(i)
				}
				label := fmt.Sprintf("%s mission %d", tc.name, i)
				got := requireSamePaths(t, label, m, ctrl, sim.RunOptions{Spoof: spoof})
				want, err := sim.Run(m, sim.RunOptions{Controller: ctrl, Spoof: spoof})
				if err != nil {
					t.Fatalf("%s: sim.Run: %v", label, err)
				}
				requireBitIdentical(t, label+" vs sim.Run", got, want)
			}
		})
	}
}

// TestBatchStepperBudgetExhaustion pins the step-budget contract on
// the batch decide path: a budget-capped mission that cannot complete
// fails with an error wrapping robust.ErrDiverged, with the same text
// and after the same number of steps as on the row path.
func TestBatchStepperBudgetExhaustion(t *testing.T) {
	ctrl := flock.MustNew(flock.DefaultParams())
	for i, m := range equivMissions(t, 5, 31, 3) {
		res, err := sim.Run(m, sim.RunOptions{Controller: ctrl, StepBudget: 10})
		if !errors.Is(err, robust.ErrDiverged) {
			t.Fatalf("mission %d: err = %v, want an error wrapping ErrDiverged", i, err)
		}
		if res != nil {
			t.Errorf("mission %d: Result non-nil after failure", i)
		}
		requireSamePaths(t, fmt.Sprintf("mission %d budget", i), m, ctrl, sim.RunOptions{StepBudget: 10})
	}
}
