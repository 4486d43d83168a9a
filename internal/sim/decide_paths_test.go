package sim_test

import (
	"math"
	"reflect"
	"testing"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/vec"
)

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
	ctrl := flockController(t, flock.DefaultParams())
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

// warmUp steps st past its warm-up: the first steps size the bus
// arena and the collision pair buffer.
func warmUp(t *testing.T, st *sim.Stepper) {
	t.Helper()
	for i := 0; i < 5; i++ {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

// warmStepAllocs warms st up and returns what one more Step allocates.
func warmStepAllocs(t *testing.T, st *sim.Stepper) float64 {
	t.Helper()
	warmUp(t, st)
	return testing.AllocsPerRun(100, func() {
		if _, err := st.Step(); err != nil {
			t.Fatal(err)
		}
	})
}

// windowAllocs warms st up and returns what the steps of one window of
// sim.TrajChunk trajectory samples allocate: the fewest objects any of
// three consecutive windows allocates. Each window holds exactly one
// sample that starts a new pair of backing chunks, whatever its phase,
// so a recording run's window allocates those two, and a per-step
// average would floor them away. testing.AllocsPerRun counts the whole
// process's allocations, so a window can also count ones made outside
// the Stepper: the runtime wakes the unique package's map cleanup
// after every GC cycle, and it allocates (two objects a cycle in this
// binary, which links unique through net/netip). An allocation of the
// Stepper's own shows in every window, and so in the minimum.
func windowAllocs(t *testing.T, st *sim.Stepper, sampleEvery int) float64 {
	t.Helper()
	warmUp(t, st)
	least := math.Inf(1)
	for w := 0; w < 3; w++ {
		least = min(least, testing.AllocsPerRun(1, func() {
			for i := 0; i < sim.TrajChunk*sampleEvery; i++ {
				if _, err := st.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}))
	}
	return least
}

// TestStepperZeroAlloc pins that once warm, a simulation step
// allocates nothing, on both decide paths and across swarm sizes up to
// n = 50, and on a spoofed run resumed from a prefix whose noise table
// an earlier run already filled. A recording run allocates its
// trajectory's position and velocity chunks and nothing else: exactly
// two allocations per window of sim.TrajChunk samples.
func TestStepperZeroAlloc(t *testing.T) {
	ctrl := flockController(t, flock.DefaultParams())
	paths := []struct {
		name string
		opts sim.RunOptions
	}{
		{"batch", sim.RunOptions{Controller: ctrl}},
		{"row", sim.RunOptions{Controller: countingController{ctrl, new(int)}, Bus: comms.NewPerfectBus()}},
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
				if !traj {
					if allocs := warmStepAllocs(t, st); allocs != 0 {
						t.Errorf("%s path n=%d: warm Step allocates %v objects/op, want 0", path.name, n, allocs)
					}
				} else if allocs := windowAllocs(t, st, mission.Config.SampleEvery); allocs != 2 {
					t.Errorf("%s path n=%d recording: a %d-sample window allocates %v objects, want 2 (one chunk each of positions and velocities)", path.name, n, sim.TrajChunk, allocs)
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
