package fuzz

import (
	"errors"
	"math"
	"strings"
	"testing"

	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/svg"
	"swarmfuzz/internal/telemetry"
)

// testMission returns a short, deterministic mission with the obstacle
// moved out of the way (safe for any controller).
func testMission(t *testing.T, n int, seed uint64) *sim.Mission {
	t.Helper()
	cfg := sim.DefaultMissionConfig(n, seed)
	cfg.MissionLength = 80
	cfg.MaxTime = 90
	m, err := sim.NewMission(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func testController(t *testing.T) sim.Controller {
	t.Helper()
	c, err := flock.New(flock.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestInputValidate(t *testing.T) {
	m := testMission(t, 3, 1)
	ctrl := testController(t)
	if err := (Input{Mission: m, Controller: ctrl, SpoofDistance: 10}).Validate(); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
	bad := []Input{
		{Controller: ctrl, SpoofDistance: 10},
		{Mission: m, SpoofDistance: 10},
		{Mission: m, Controller: ctrl, SpoofDistance: 0},
		{Mission: m, Controller: ctrl, SpoofDistance: -5},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("bad input %d accepted", i)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("default options invalid: %v", err)
	}
	mod := func(f func(*Options)) Options {
		o := DefaultOptions()
		f(&o)
		return o
	}
	bad := []Options{
		mod(func(o *Options) { o.MaxIterPerSeed = 0 }),
		mod(func(o *Options) { o.MaxSeeds = -1 }),
		mod(func(o *Options) { o.InitDuration = 0 }),
		mod(func(o *Options) { o.ApproachLead = -1 }),
		mod(func(o *Options) { o.Grad.LearningRate = 0 }),
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestAllFuzzersRejectBadInput(t *testing.T) {
	for _, f := range []Fuzzer{SwarmFuzz{}, RFuzz{}, GFuzz{}, SFuzz{}} {
		if _, err := f.Fuzz(Input{}, DefaultOptions()); err == nil {
			t.Errorf("%s accepted empty input", f.Name())
		}
		in := Input{Mission: testMission(t, 3, 1), Controller: testController(t), SpoofDistance: 10}
		if _, err := f.Fuzz(in, Options{}); err == nil {
			t.Errorf("%s accepted zero options", f.Name())
		}
	}
}

func TestFuzzerNames(t *testing.T) {
	want := map[string]Fuzzer{
		"SwarmFuzz": SwarmFuzz{},
		"R_Fuzz":    RFuzz{},
		"G_Fuzz":    GFuzz{},
		"S_Fuzz":    SFuzz{},
	}
	for name, f := range want {
		if f.Name() != name {
			t.Errorf("Name() = %q, want %q", f.Name(), name)
		}
	}
}

func TestUnsafeMissionRejected(t *testing.T) {
	// Craft a mission whose clean run collides: drop the obstacle in
	// the middle of the swarm's start area so avoidance cannot save a
	// drone starting inside it.
	m := testMission(t, 3, 2)
	m.World.Obstacles[0] = sim.Obstacle{Center: m.Start[0], Radius: 3}
	in := Input{Mission: m, Controller: testController(t), SpoofDistance: 10}
	_, err := SwarmFuzz{}.Fuzz(in, DefaultOptions())
	if !errors.Is(err, ErrUnsafeMission) {
		t.Errorf("unsafe mission error = %v, want ErrUnsafeMission", err)
	}
}

func TestRFuzzDeterministic(t *testing.T) {
	in := Input{Mission: testMission(t, 4, 3), Controller: testController(t), SpoofDistance: 10}
	opts := DefaultOptions()
	opts.MaxIterPerSeed = 2
	opts.MaxSeeds = 2
	a, err := RFuzz{}.Fuzz(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RFuzz{}.Fuzz(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Found != b.Found || a.SeedsTried != b.SeedsTried ||
		a.IterationsToFind != b.IterationsToFind || a.SimRuns != b.SimRuns {
		t.Errorf("R_Fuzz not deterministic: %+v vs %+v", a, b)
	}
}

func TestRFuzzRandSeedChangesSampling(t *testing.T) {
	in := Input{Mission: testMission(t, 4, 3), Controller: testController(t), SpoofDistance: 10}
	optsA := DefaultOptions()
	optsA.MaxIterPerSeed = 1
	optsA.MaxSeeds = 3
	optsB := optsA
	optsB.RandSeed = 999
	// Different RandSeed must not crash and usually samples different
	// pairs; at minimum the reports must be well-formed.
	a, err := RFuzz{}.Fuzz(in, optsA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RFuzz{}.Fuzz(in, optsB)
	if err != nil {
		t.Fatal(err)
	}
	if a.SeedsTried == 0 || b.SeedsTried == 0 {
		t.Error("no seeds tried")
	}
}

func TestReportBookkeeping(t *testing.T) {
	in := Input{Mission: testMission(t, 4, 4), Controller: testController(t), SpoofDistance: 10}
	opts := DefaultOptions()
	opts.MaxIterPerSeed = 3
	opts.MaxSeeds = 2
	rep, err := SwarmFuzz{}.Fuzz(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fuzzer != "SwarmFuzz" {
		t.Errorf("report fuzzer %q", rep.Fuzzer)
	}
	if rep.Clean == nil {
		t.Fatal("report has no clean run")
	}
	if rep.VDO <= 0 {
		t.Errorf("VDO %v not positive for clean-safe mission", rep.VDO)
	}
	if rep.SeedsTried == 0 {
		t.Error("no seeds tried")
	}
	if rep.SeedsTried > opts.MaxSeeds {
		t.Errorf("seeds tried %d exceeds cap %d", rep.SeedsTried, opts.MaxSeeds)
	}
	// Sim runs include the clean run plus at least one per iteration.
	if rep.SimRuns <= rep.IterationsToFind {
		t.Errorf("sim runs %d not above iterations %d", rep.SimRuns, rep.IterationsToFind)
	}
	if !rep.Found && len(rep.Findings) != 0 {
		t.Error("findings without Found")
	}
}

func TestMaxSeedsZeroMeansAll(t *testing.T) {
	in := Input{Mission: testMission(t, 3, 5), Controller: testController(t), SpoofDistance: 10}
	opts := DefaultOptions()
	opts.MaxIterPerSeed = 1
	opts.MaxSeeds = 0
	rep, err := SwarmFuzz{}.Fuzz(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	// With 3 drones and 2 directions the scheduler emits up to 6
	// seeds; all should be consumed when nothing is found.
	if rep.Found {
		t.Skip("mission unexpectedly vulnerable; seed accounting not comparable")
	}
	if rep.SeedsTried < 2 {
		t.Errorf("only %d seeds tried with no cap", rep.SeedsTried)
	}
}

func TestEvaluateTargetCollisionNotSuccess(t *testing.T) {
	// A run where the victim survives is never a success even if the
	// target crashes.
	m := testMission(t, 3, 6)
	in := Input{Mission: m, Controller: testController(t), SpoofDistance: 10}
	// Evaluate a no-op plan (zero duration): nothing happens.
	ev, err := evaluate(in, gps.SpoofPlan{
		Target: 0, Start: 0, Duration: 0, Direction: gps.Right, Distance: 10,
	}, 1, nil, telemetry.Nop)
	if err != nil {
		t.Fatal(err)
	}
	if ev.success {
		t.Error("no-op attack reported success")
	}
	if ev.objective <= 0 {
		t.Errorf("clean-safe run has non-positive objective %v", ev.objective)
	}
	clean, err := sim.Run(m, sim.RunOptions{Controller: in.Controller})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(ev.objective) != math.Float64bits(clean.MinClearance[1]) {
		t.Errorf("no-op objective %v, clean run's clearance %v", ev.objective, clean.MinClearance[1])
	}
}

func TestApproachTime(t *testing.T) {
	m := testMission(t, 3, 7)
	ctrl := testController(t)
	res, err := sim.Run(m, sim.RunOptions{Controller: ctrl, RecordTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	at := approachTime(m, res.Trajectory, 25)
	if at <= 0 || at >= res.Duration {
		t.Errorf("approach time %v outside (0, %v)", at, res.Duration)
	}
	// A huge lead means the swarm is "approaching" immediately.
	if got := approachTime(m, res.Trajectory, 1e6); got != res.Trajectory.Times[0] {
		t.Errorf("huge lead approach time = %v, want first sample", got)
	}
	// Empty trajectory degrades to zero.
	if got := approachTime(m, &sim.Trajectory{}, 25); got != 0 {
		t.Errorf("empty trajectory approach time = %v", got)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{
		Plan:       gps.SpoofPlan{Target: 2, Start: 10, Duration: 5, Direction: gps.Left, Distance: 10},
		Victim:     3,
		Objective:  -0.5,
		Iterations: 4,
	}
	got := f.String()
	want := "SPV{spoof{target=2 t_s=10.00s Δt=5.00s θ=left d=10.0m} victim=3 f=-0.50m iters=4}"
	if got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestFuzzWithPropagatesSeedErrors(t *testing.T) {
	m := testMission(t, 3, 1)
	ctrl := testController(t)
	in := Input{Mission: m, Controller: ctrl, SpoofDistance: 10}
	opts := DefaultOptions()
	opts.MaxIterPerSeed = 2

	// A seed whose target is out of range makes every evaluation fail:
	// the walk must record the failure and return it, not pretend the
	// seed list was exhausted.
	badSeeds := func(Input, *cleanRun, Options, telemetry.Recorder) ([]svg.Seed, error) {
		return []svg.Seed{{Target: 99, Victim: 0, Direction: gps.Right}}, nil
	}
	rep, err := fuzzWith(in, opts, "BadSeedFuzz", badSeeds, gradientSearch, "gradient_search", true)
	if err == nil {
		t.Fatal("seed-search failure swallowed")
	}
	if len(rep.SeedErrors) != 1 || !strings.Contains(rep.SeedErrors[0], "T99-V0") {
		t.Errorf("SeedErrors = %v, want one entry naming seed T99-V0", rep.SeedErrors)
	}
	if rep.SeedsTried != 1 {
		t.Errorf("SeedsTried = %d, want 1", rep.SeedsTried)
	}
}
