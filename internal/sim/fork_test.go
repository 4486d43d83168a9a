package sim_test

import (
	"errors"
	"math"
	"strings"
	"testing"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/telemetry"
	"swarmfuzz/internal/vec"
)

// countedRun runs m and returns the result with the run's sim_runs and
// sim_steps counters.
func countedRun(t *testing.T, m *sim.Mission, opts sim.RunOptions) (res *sim.Result, runs, steps int64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	opts.Telemetry = telemetry.New(reg, nil)
	res, err := sim.Run(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	c := reg.Snapshot().Counters
	return res, c[telemetry.MSimRuns], c[telemetry.MSimSteps]
}

// expectedForkStep is the step a Prefix run resumes at, derived from
// the contract: the latest multiple of ForkEvery the clean run reached
// whose preceding step lies before the spoof start.
func expectedForkStep(cleanSteps int64, dt float64, plan *gps.SpoofPlan) int64 {
	start := math.Inf(1)
	if plan != nil {
		start = plan.Start
	}
	best := int64(0)
	for s := int64(0); s < cleanSteps; s += sim.ForkEvery {
		if float64(s-1)*dt < start {
			best = s
		}
	}
	return best
}

// forkPlans returns the spoof plans the fork property is checked on:
// t_s at 0, on and just before a fork boundary, random, at the clean
// run's end, a zero-length window, and a window shorter than Dt that
// falls between two steps — each in both directions.
func forkPlans(m *sim.Mission, clean *sim.Result, target int, src *rng.Source) []gps.SpoofPlan {
	dt := m.Config.Dt
	boundary := float64(10*sim.ForkEvery) * dt
	windows := [][2]float64{
		{0, 8},
		{boundary, 6},
		{boundary - dt, 6},
		{float64(10*sim.ForkEvery-1) * dt, 6},
		{src.Uniform(0, clean.Duration), src.Uniform(0.5, 20)},
		{src.Uniform(0, clean.Duration), src.Uniform(0.5, 20)},
		{clean.Duration, 5},
		{src.Uniform(0, clean.Duration), 0},
		{(float64(7*sim.ForkEvery+3) + 0.3) * dt, 0.5 * dt},
	}
	var plans []gps.SpoofPlan
	for _, dir := range []gps.Direction{gps.Right, gps.Left} {
		for _, w := range windows {
			plans = append(plans, gps.SpoofPlan{Target: target, Start: w[0], Duration: w[1], Direction: dir, Distance: 10})
		}
	}
	return plans
}

// checkFork runs every plan in full and resumed from the clean run of
// m, and requires bit-identical results, one counted simulation each,
// and a resumed step count of the full run's minus the fork step.
func checkFork(t *testing.T, m *sim.Mission, ctrl sim.Controller, plans []gps.SpoofPlan) {
	t.Helper()
	clean, _, cleanSteps := countedRun(t, m, sim.RunOptions{Controller: ctrl, RecordTrajectory: true})
	for i := range plans {
		plan := &plans[i]
		full, fullRuns, fullSteps := countedRun(t, m, sim.RunOptions{Controller: ctrl, Spoof: plan})
		got, runs, steps := countedRun(t, m, sim.RunOptions{Controller: ctrl, Spoof: plan, Prefix: clean.Trajectory})
		requireBitIdentical(t, plan.String(), got, full)
		if fullRuns != 1 || runs != 1 {
			t.Fatalf("%v: sim_runs full=%d resumed=%d, want 1 each", plan, fullRuns, runs)
		}
		fork := expectedForkStep(cleanSteps, m.Config.Dt, plan)
		if steps != fullSteps-fork {
			t.Fatalf("%v: resumed run took %d steps, want %d (full %d − fork step %d)",
				plan, steps, fullSteps-fork, fullSteps, fork)
		}
	}
	// Without a spoof plan the run resumes from the clean run's last
	// fork point and reproduces its outcome.
	got, _, steps := countedRun(t, m, sim.RunOptions{Controller: ctrl, Prefix: clean.Trajectory})
	want := *clean
	want.Trajectory = nil
	requireBitIdentical(t, "no spoof", got, &want)
	if fork := expectedForkStep(cleanSteps, m.Config.Dt, nil); steps != cleanSteps-fork {
		t.Fatalf("no spoof: resumed run took %d steps, want %d", steps, cleanSteps-fork)
	}
}

// TestPrefixResumeMatchesFullRun pins the fork contract: a spoofed run
// resumed from the clean run's trajectory is bit-identical to the same
// run from t=0, counts as one simulation, and executes exactly the
// full run's steps minus the steps before its fork point.
func TestPrefixResumeMatchesFullRun(t *testing.T) {
	ctrl := flock.MustNew(flock.DefaultParams())
	for _, n := range []int{3, 5, 15} {
		for seed := uint64(1); seed <= 4; seed++ {
			m, err := sim.NewMission(sim.DefaultMissionConfig(n, seed))
			if err != nil {
				t.Fatal(err)
			}
			clean, err := sim.Run(m, sim.RunOptions{Controller: ctrl})
			if err != nil {
				t.Fatal(err)
			}
			checkFork(t, m, ctrl, forkPlans(m, clean, int(seed)%n, rng.New(seed*100+uint64(n))))
		}
	}
}

// rammingController flies drones 0 and 1 straight at each other and
// leaves the rest to the flocking controller, so the clean run records
// an early drone-drone collision before most of its fork points.
// It holds the flocking controller in a named field: embedding it
// would promote BatchCommands and the Stepper would never call this
// Command.
type rammingController struct{ ctrl *flock.Controller }

func (c rammingController) Command(p sim.Perception, nb []comms.State, w *sim.World) vec.Vec3 {
	if p.ID > 1 {
		return c.ctrl.Command(p, nb, w)
	}
	for _, s := range nb {
		if s.ID == 1-p.ID {
			return s.Position.Sub(p.GPS.Position).Unit().Scale(8)
		}
	}
	return vec.Zero
}

// TestPrefixResumeAfterCollision forks from snapshots that already
// hold a collision and crashed drones.
func TestPrefixResumeAfterCollision(t *testing.T) {
	ctrl := rammingController{flock.MustNew(flock.DefaultParams())}
	m, err := sim.NewMission(sim.DefaultMissionConfig(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := sim.Run(m, sim.RunOptions{Controller: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Collisions) == 0 || clean.Collisions[0].Time >= float64(10*sim.ForkEvery)*m.Config.Dt {
		t.Fatalf("clean run should collide before the fork boundary plans; collisions %v", clean.Collisions)
	}
	checkFork(t, m, ctrl, forkPlans(m, clean, 3, rng.New(7)))
}

// TestPrefixResumeRespectsStepBudget caps a resumed run's steps below
// the fork points its spoof plan would otherwise allow: it must fork
// no later than the budget and fail exactly as the full run does.
func TestPrefixResumeRespectsStepBudget(t *testing.T) {
	ctrl := flock.MustNew(flock.DefaultParams())
	m, err := sim.NewMission(sim.DefaultMissionConfig(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := sim.Run(m, sim.RunOptions{Controller: ctrl, RecordTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	const budget = 3*sim.ForkEvery + 7
	plan := &gps.SpoofPlan{Target: 1, Start: clean.Duration / 2, Duration: 5, Direction: gps.Left, Distance: 10}
	for _, prefix := range []*sim.Trajectory{nil, clean.Trajectory} {
		reg := telemetry.NewRegistry()
		_, err := sim.Run(m, sim.RunOptions{Controller: ctrl, Spoof: plan, StepBudget: budget, Prefix: prefix, Telemetry: telemetry.New(reg, nil)})
		if !errors.Is(err, robust.ErrDiverged) {
			t.Fatalf("prefix=%v: err = %v, want the exhausted step budget", prefix != nil, err)
		}
		want := int64(budget + 1)
		if prefix != nil {
			want -= 3 * sim.ForkEvery
		}
		if got := reg.Snapshot().Counters[telemetry.MSimSteps]; got != want {
			t.Errorf("prefix=%v: %d steps, want %d", prefix != nil, got, want)
		}
	}
}

// nopFlight is a FlightRecorder that records nothing.
type nopFlight struct{}

func (nopFlight) BeginFlight(*sim.Mission, *gps.SpoofPlan) {}
func (nopFlight) RecordStep(sim.FlightStep)                {}
func (nopFlight) RecordCollision(sim.Collision)            {}
func (nopFlight) EndFlight(*sim.Result, error)             {}

// TestPrefixValidation rejects every option combination a resumed run
// cannot honour, and every trajectory that carries no usable fork
// points for the mission.
func TestPrefixValidation(t *testing.T) {
	ctrl := flock.MustNew(flock.DefaultParams())
	m, err := sim.NewMission(sim.DefaultMissionConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	other, err := sim.NewMission(sim.DefaultMissionConfig(3, 2))
	if err != nil {
		t.Fatal(err)
	}
	record := func(opts sim.RunOptions) *sim.Trajectory {
		opts.Controller, opts.RecordTrajectory = ctrl, true
		res, err := sim.Run(m, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Trajectory
	}
	clean := record(sim.RunOptions{})
	plan := &gps.SpoofPlan{Target: 0, Start: 20, Duration: 5, Direction: gps.Right, Distance: 10}
	cases := []struct {
		name string
		m    *sim.Mission
		opts sim.RunOptions
		want string
	}{
		{"bus", m, sim.RunOptions{Bus: comms.NewPerfectBus()}, "Bus must be nil"},
		{"flight", m, sim.RunOptions{Flight: nopFlight{}}, "flight-recorded"},
		{"trajectory", m, sim.RunOptions{RecordTrajectory: true}, "record a trajectory"},
		{"other mission", other, sim.RunOptions{}, "different mission"},
		{"hand-built trajectory", m, sim.RunOptions{Prefix: &sim.Trajectory{}}, "no fork points"},
		{"spoofed recording", m, sim.RunOptions{Prefix: record(sim.RunOptions{Spoof: plan})}, "no fork points"},
	}
	for _, tc := range cases {
		reg := telemetry.NewRegistry()
		opts := tc.opts
		opts.Controller, opts.Spoof, opts.Telemetry = ctrl, plan, telemetry.New(reg, nil)
		if opts.Prefix == nil {
			opts.Prefix = clean
		}
		_, err := sim.Run(tc.m, opts)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
		if runs := reg.Snapshot().Counters[telemetry.MSimRuns]; runs != 0 {
			t.Errorf("%s: rejected run counted %d sims", tc.name, runs)
		}
	}
}
