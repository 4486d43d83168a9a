package sim

import "testing"

// TestStepperMatchesRun drives a Stepper by hand and checks it
// reproduces Run exactly (Run is itself a Stepper loop, but the test
// pins the exported incremental API: step counts, result identity).
func TestStepperMatchesRun(t *testing.T) {
	mission, err := NewMission(smallConfig(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	opts := RunOptions{Controller: straightController{speed: 2}, RecordTrajectory: true}

	want, err := Run(mission, opts)
	if err != nil {
		t.Fatal(err)
	}

	st, err := NewStepper(mission, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result() != nil {
		t.Fatal("Result non-nil before completion")
	}
	for {
		done, err := st.Step()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	got := st.Result()
	if got == nil {
		t.Fatal("Result nil after completion")
	}
	if got.Duration != want.Duration || got.Completed != want.Completed {
		t.Fatalf("stepper result (%.2fs, %v) != run result (%.2fs, %v)",
			got.Duration, got.Completed, want.Duration, want.Completed)
	}
	if len(got.Trajectory.Times) != len(want.Trajectory.Times) {
		t.Fatalf("trajectory samples %d != %d", len(got.Trajectory.Times), len(want.Trajectory.Times))
	}
	for s := range want.Trajectory.Positions {
		for i := range want.Trajectory.Positions[s] {
			if got.Trajectory.Positions[s][i] != want.Trajectory.Positions[s][i] {
				t.Fatalf("sample %d drone %d position differs", s, i)
			}
		}
	}
	// Step after done re-returns the terminal state.
	if done, err := st.Step(); !done || err != nil {
		t.Fatalf("Step after done = (%v, %v), want (true, nil)", done, err)
	}
	if st.StepsRun() == 0 {
		t.Fatal("StepsRun is zero after a full run")
	}
}
