package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

// rowController hides every method but Command, so a Stepper running
// it takes the row path (bus exchange plus per-drone Command) even
// when the wrapped controller has the batch kernel.
type rowController struct{ sim.Controller }

// sameBits reports whether a and b hold the same bits in every float
// they reach, unexported fields included. reflect.DeepEqual compares
// floats with ==, which equates 0 and -0 and never matches NaN.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
	}
	return true
}

// requireBitIdentical fails unless got and want are deeply equal and
// every float they hold, fork points included, has the same bits.
func requireBitIdentical(t *testing.T, label string, got, want *sim.Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: results differ:\n got  %+v\n want %+v", label, got, want)
	}
	if !sameBits(reflect.ValueOf(got), reflect.ValueOf(want)) {
		t.Fatalf("%s: results are == but not bit-identical", label)
	}
}

// requireSamePaths runs m with opts through the batch path (ctrl as
// given) and the row path (ctrl behind rowController) and requires
// bit-identical results or identical errors, and equal step counts.
// It returns the batch path's result.
func requireSamePaths(t *testing.T, label string, m *sim.Mission, ctrl *flock.Controller, opts sim.RunOptions) *sim.Result {
	t.Helper()
	run := func(c sim.Controller, prefix *sim.Trajectory) (*sim.Result, int, error) {
		o := opts
		o.Controller = c
		if o.Prefix != nil {
			o.Prefix = prefix
		}
		st, err := sim.NewStepper(m, o)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for {
			done, err := st.Step()
			if err != nil {
				return nil, st.StepsRun(), err
			}
			if done {
				return st.Result(), st.StepsRun(), nil
			}
		}
	}
	batch, batchSteps, batchErr := run(ctrl, opts.Prefix)
	// A row-path Prefix must come from a row-path clean run too, so the
	// fork points it resumes from are the row path's own.
	var rowPrefix *sim.Trajectory
	if opts.Prefix != nil {
		clean, err := sim.Run(m, sim.RunOptions{Controller: rowController{ctrl}, RecordTrajectory: true})
		if err != nil {
			t.Fatalf("%s: row clean run: %v", label, err)
		}
		rowPrefix = clean.Trajectory
	}
	row, rowSteps, rowErr := run(rowController{ctrl}, rowPrefix)
	if batchSteps != rowSteps {
		t.Fatalf("%s: batch path ran %d steps, row path %d", label, batchSteps, rowSteps)
	}
	if (batchErr == nil) != (rowErr == nil) || (batchErr != nil && batchErr.Error() != rowErr.Error()) {
		t.Fatalf("%s: batch path error %v, row path error %v", label, batchErr, rowErr)
	}
	if batchErr == nil {
		requireBitIdentical(t, label, batch, row)
	}
	return batch
}

// TestBatchPathMatchesRowPath pins the Stepper's two decide paths to
// each other: the same missions run through the batch kernel and
// through per-drone Command over a PerfectBus give bit-identical
// results — clean runs with trajectories and fork points, spoofed runs
// resumed from a prefix and drone-drone collisions — on both sides of
// the collision grid's swarm-size crossover.
func TestBatchPathMatchesRowPath(t *testing.T) {
	ctrl := flock.MustNew(flock.DefaultParams())
	for _, n := range []int{3, 5, 15, 50} {
		m, err := sim.NewMission(sim.DefaultMissionConfig(n, uint64(n)))
		if err != nil {
			t.Fatal(err)
		}
		clean := requireSamePaths(t, fmt.Sprintf("n=%d clean", n), m, ctrl, sim.RunOptions{RecordTrajectory: true})
		if len(clean.Trajectory.Times) == 0 {
			t.Fatalf("n=%d: clean run recorded no trajectory", n)
		}
		for i, start := range []float64{0, clean.Duration / 3, clean.Duration / 2} {
			plan := &gps.SpoofPlan{Target: i % n, Start: start, Duration: 12, Direction: []gps.Direction{gps.Right, gps.Left}[i%2], Distance: 10}
			requireSamePaths(t, fmt.Sprintf("n=%d %v", n, plan), m, ctrl, sim.RunOptions{Spoof: plan, Prefix: clean.Trajectory})
		}
	}
}

// TestBatchPathMatchesRowPathWithDroneCollisions covers drone-drone
// collisions on both paths: without repulsion and with strong
// cohesion the swarm folds onto itself, so the collision scan — which
// the batch path culls only when it can prove it empty — must fire.
// Noise-free GPS leaves motion as the bound's only slack.
func TestBatchPathMatchesRowPathWithDroneCollisions(t *testing.T) {
	p := flock.DefaultParams()
	p.RRep, p.PRep = 0.05, 0
	p.RAtt, p.PAtt, p.VAttMax = 0.1, 2, p.VMax
	ctrl := flock.MustNew(p)
	for _, n := range []int{5, 50} {
		for _, noisy := range []bool{true, false} {
			cfg := sim.DefaultMissionConfig(n, 3)
			if !noisy {
				cfg.GPSBias, cfg.GPSNoise = 0, 0
			}
			m, err := sim.NewMission(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res := requireSamePaths(t, fmt.Sprintf("n=%d noisy=%v", n, noisy), m, ctrl, sim.RunOptions{RecordTrajectory: true})
			drone := 0
			for _, c := range res.Collisions {
				if c.Kind == sim.KindDrone {
					drone++
				}
			}
			if drone == 0 {
				t.Fatalf("n=%d noisy=%v: no drone-drone collisions (%v)", n, noisy, res.Collisions)
			}
		}
	}
}

// countingController wraps the flocking controller in a named field,
// as a Command override must (see sim.BatchController): it does not
// promote BatchCommands, so its own Command runs.
type countingController struct {
	ctrl  *flock.Controller
	calls *int
}

func (c countingController) Command(p sim.Perception, nb []comms.State, w *sim.World) vec.Vec3 {
	*c.calls++
	return c.ctrl.Command(p, nb, w)
}

// TestCommandOverrideRuns checks that a wrapper holding a batch-capable
// controller in a named field keeps its Command override: every active
// drone's command each step goes through it, and the result is the
// plain controller's.
func TestCommandOverrideRuns(t *testing.T) {
	ctrl := flock.MustNew(flock.DefaultParams())
	m, err := sim.NewMission(sim.DefaultMissionConfig(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	got, _, steps := countedRun(t, m, sim.RunOptions{Controller: countingController{ctrl, &calls}})
	want, _, _ := countedRun(t, m, sim.RunOptions{Controller: ctrl})
	requireBitIdentical(t, "counting wrapper", got, want)
	if len(want.Collisions) != 0 {
		t.Fatalf("mission collides (%v); pick a clean one", want.Collisions)
	}
	if int64(calls) != steps*5 {
		t.Fatalf("Command override ran %d times, want %d (5 drones × %d steps)", calls, steps*5, steps)
	}
}

// warmStepAllocs steps st past its warm-up — the first steps size the
// bus arena and collision grid — and returns what one more Step
// allocates.
func warmStepAllocs(t *testing.T, st *sim.Stepper) float64 {
	t.Helper()
	for i := 0; i < 5; i++ {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return testing.AllocsPerRun(100, func() {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStepperZeroAlloc pins that once warm, one simulation step
// allocates nothing — on both decide paths, across swarm sizes on both
// collision paths (brute force and spatial hash), with and without
// trajectory recording, and on a spoofed run resumed from a prefix
// whose noise table an earlier run already filled.
func TestStepperZeroAlloc(t *testing.T) {
	ctrl := flock.MustNew(flock.DefaultParams())
	paths := []struct {
		name string
		opts sim.RunOptions
	}{
		{"batch", sim.RunOptions{Controller: ctrl}},
		{"row", sim.RunOptions{Controller: rowController{ctrl}, Bus: comms.NewPerfectBus()}},
	}
	for _, n := range []int{5, 10, 50} {
		mission, err := sim.NewMission(sim.DefaultMissionConfig(n, 7))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			for _, traj := range []bool{false, true} {
				opts := path.opts
				opts.RecordTrajectory = traj
				st, err := sim.NewStepper(mission, opts)
				if err != nil {
					t.Fatal(err)
				}
				if allocs := warmStepAllocs(t, st); allocs != 0 {
					t.Errorf("%s path n=%d traj=%v: warm Step allocates %v objects/op, want 0", path.name, n, traj, allocs)
				}
			}
		}

		clean, err := sim.Run(mission, sim.RunOptions{Controller: ctrl, RecordTrajectory: true})
		if err != nil {
			t.Fatal(err)
		}
		plan := &gps.SpoofPlan{Target: 0, Start: 10, Duration: 20, Direction: gps.Right, Distance: 10}
		opts := sim.RunOptions{Controller: ctrl, Spoof: plan, Prefix: clean.Trajectory}
		if _, err := sim.Run(mission, opts); err != nil { // fills the table through the run's end
			t.Fatal(err)
		}
		st, err := sim.NewStepper(mission, opts)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := warmStepAllocs(t, st); allocs != 0 {
			t.Errorf("resumed run n=%d: warm Step allocates %v objects/op, want 0", n, allocs)
		}
	}
}
