package sim_test

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/telemetry"
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

// TestNoOpPlansReproduceCleanRun pins two plans that cannot act: a
// zero spoofing distance over the whole run, and a window that opens
// one Dt after the clean run has ended. Each must reproduce the
// unrecorded clean run's result bit for bit, run fresh and resumed
// from the clean trajectory.
func TestNoOpPlansReproduceCleanRun(t *testing.T) {
	ctrl := flockController(t, flock.DefaultParams())
	for _, n := range []int{3, 5, 15} {
		for seed := uint64(1); seed <= 2; seed++ {
			m, err := sim.NewMission(sim.DefaultMissionConfig(n, seed))
			if err != nil {
				t.Fatal(err)
			}
			clean, err := sim.Run(m, sim.RunOptions{Controller: ctrl})
			if err != nil {
				t.Fatal(err)
			}
			recorded, err := sim.Run(m, sim.RunOptions{Controller: ctrl, RecordTrajectory: true})
			if err != nil {
				t.Fatal(err)
			}
			target := int(seed) % n
			plans := []struct {
				name string
				plan gps.SpoofPlan
			}{
				{"zero distance", gps.SpoofPlan{Target: target, Start: 0, Duration: clean.Duration, Direction: gps.Right, Distance: 0}},
				{"window after the end", gps.SpoofPlan{Target: target, Start: clean.Duration + m.Config.Dt, Duration: 10, Direction: gps.Left, Distance: 10}},
			}
			for _, tc := range plans {
				for _, prefix := range []*sim.Trajectory{nil, recorded.Trajectory} {
					label := fmt.Sprintf("n=%d seed=%d %s, resumed=%v", n, seed, tc.name, prefix != nil)
					got, err := sim.Run(m, sim.RunOptions{Controller: ctrl, Spoof: &tc.plan, Prefix: prefix})
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					requireBitIdentical(t, label, got, clean)
				}
			}
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
	ctrl := flockController(t, flock.DefaultParams())
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

// TestPrefixResumeConcurrent resumes every fork plan from one fresh
// clean trajectory at once, so the runs grow its shared noise table
// concurrently (under -race, the detector watches the growth), and
// requires each result to equal its full run bit for bit.
func TestPrefixResumeConcurrent(t *testing.T) {
	ctrl := flockController(t, flock.DefaultParams())
	m, err := sim.NewMission(sim.DefaultMissionConfig(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	clean, err := sim.Run(m, sim.RunOptions{Controller: ctrl, RecordTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	plans := forkPlans(m, clean, 2, rng.New(33))
	want := make([]*sim.Result, len(plans))
	for i := range plans {
		if want[i], err = sim.Run(m, sim.RunOptions{Controller: ctrl, Spoof: &plans[i]}); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]*sim.Result, len(plans))
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = sim.Run(m, sim.RunOptions{Controller: ctrl, Spoof: &plans[i], Prefix: clean.Trajectory})
		}(i)
	}
	wg.Wait()
	for i := range plans {
		if errs[i] != nil {
			t.Fatalf("%v: %v", &plans[i], errs[i])
		}
		requireBitIdentical(t, plans[i].String(), got[i], want[i])
	}
}

// TestNoiseTableOrderIndependence resumes two runs from a fresh clean
// trajectory in both orders and requires every run's state to equal a
// full run's, whichever of the two filled the shared noise table. The
// second run ends inside the table's last filled chunk, at its end,
// past it, or past the clean run's end; complete runs that end before
// and after the clean run do the same with whole results.
func TestNoiseTableOrderIndependence(t *testing.T) {
	ctrl := flockController(t, flock.DefaultParams())
	m, err := sim.NewMission(sim.DefaultMissionConfig(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	record := func() *sim.Trajectory {
		res, err := sim.Run(m, sim.RunOptions{Controller: ctrl, RecordTrajectory: true})
		if err != nil {
			t.Fatal(err)
		}
		return res.Trajectory
	}
	_, _, cleanSteps := countedRun(t, m, sim.RunOptions{Controller: ctrl})
	long := &gps.SpoofPlan{Target: 0, Start: 5, Duration: 150, Direction: gps.Right, Distance: 60}
	short := &gps.SpoofPlan{Target: 0, Start: 5, Duration: 150, Direction: gps.Right, Distance: 120}
	longRes, _, longSteps := countedRun(t, m, sim.RunOptions{Controller: ctrl, Spoof: long})
	shortRes, _, shortSteps := countedRun(t, m, sim.RunOptions{Controller: ctrl, Spoof: short})
	const pastClean = 40
	if !(shortSteps < cleanSteps && cleanSteps+pastClean < longSteps) {
		t.Fatalf("run lengths short %d, clean %d, long %d: want short < clean < clean+%d < long", shortSteps, cleanSteps, longSteps, pastClean)
	}

	// stepped resumes (or, with prefix nil, fully runs) the long plan
	// through step last and returns the state there.
	stepped := func(prefix *sim.Trajectory, last int) ([]sim.Body, []gps.Reading) {
		st, err := sim.NewStepper(m, sim.RunOptions{Controller: ctrl, Spoof: long, Prefix: prefix})
		if err != nil {
			t.Fatal(err)
		}
		bodies, readings, err := sim.StepThrough(st, last)
		if err != nil {
			t.Fatal(err)
		}
		return bodies, readings
	}
	c := sim.NoiseChunk
	first := 10*c - 1 // the first run fills exactly ten chunks
	seconds := []struct {
		name string
		last int
	}{
		{"inside the last filled chunk", 9*c + 17},
		{"at the filled end", first},
		{"past the filled end", first + 5},
		{"past the clean run's end", int(cleanSteps) + pastClean},
	}
	for _, second := range seconds {
		for _, order := range [][2]int{{first, second.last}, {second.last, first}} {
			tr := record()
			for _, last := range order {
				gotBodies, gotReadings := stepped(tr, last)
				wantBodies, wantReadings := stepped(nil, last)
				if !reflect.DeepEqual(gotBodies, wantBodies) || !sameBits(reflect.ValueOf(gotBodies), reflect.ValueOf(wantBodies)) ||
					!reflect.DeepEqual(gotReadings, wantReadings) || !sameBits(reflect.ValueOf(gotReadings), reflect.ValueOf(wantReadings)) {
					t.Fatalf("%s, order %v: state after step %d differs from the full run's", second.name, order, last)
				}
			}
			if got, want := sim.NoiseSteps(tr), (max(order[0], order[1])/c+1)*c; got != want {
				t.Errorf("%s, order %v: table holds %d steps, want %d", second.name, order, got, want)
			}
		}
	}

	for _, order := range [][2]*gps.SpoofPlan{{long, short}, {short, long}} {
		tr := record()
		for _, plan := range order {
			want := shortRes
			if plan == long {
				want = longRes
			}
			got, err := sim.Run(m, sim.RunOptions{Controller: ctrl, Spoof: plan, Prefix: tr})
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, plan.String(), got, want)
		}
	}
}
