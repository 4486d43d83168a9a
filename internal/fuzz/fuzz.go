// Package fuzz is the paper's primary contribution: SwarmFuzz, a
// fuzzing framework that finds Swarm Propagation Vulnerabilities
// (SPVs) in swarm control algorithms, plus the three ablation fuzzers
// (R_Fuzz, G_Fuzz, S_Fuzz) it is compared against in §V-C.
//
// SwarmFuzz proceeds exactly as Fig. 3 describes:
//
//  1. Run an initial test without any attack. If the clean mission
//     fails (collides), the mission is rejected; otherwise record the
//     trajectory, per-drone obstacle clearances and mission duration.
//  2. Build the Swarm Vulnerability Graph for each spoofing direction
//     at t_clo, run PageRank centrality, and schedule target–victim
//     seeds: victims in ascending VDO order, each paired with its most
//     influential target.
//  3. For each seed, search the spoofing start time t_s and duration
//     Δt with gradient descent on the victim-to-obstacle distance,
//     until a collision is found or the per-seed iteration budget is
//     exhausted.
package fuzz

import (
	"errors"
	"fmt"
	"math"

	"swarmfuzz/internal/flightlog"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/opt"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/svg"
	"swarmfuzz/internal/telemetry"
)

// Input is one fuzzing problem: a mission, the swarm control algorithm
// under test, and the GPS spoofing deviation available to the attacker.
type Input struct {
	// Mission is the mission instance to fuzz.
	Mission *sim.Mission
	// Controller is the swarm control algorithm under test.
	Controller sim.Controller
	// SpoofDistance is the spoofing deviation d in metres.
	SpoofDistance float64
}

// Validate returns an error when the input is unusable.
func (in Input) Validate() error {
	switch {
	case in.Mission == nil:
		return errors.New("fuzz: nil mission")
	case in.Controller == nil:
		return errors.New("fuzz: nil controller")
	case in.SpoofDistance <= 0:
		return fmt.Errorf("fuzz: spoof distance %v must be positive", in.SpoofDistance)
	}
	return nil
}

// Options configure all fuzzers.
type Options struct {
	// MaxIterPerSeed caps search iterations per seed (paper: 20).
	MaxIterPerSeed int
	// MaxSeeds caps the number of seeds tried per mission; 0 means all
	// scheduled seeds.
	MaxSeeds int
	// Grad parameterises the gradient descent (learning rate, finite
	// difference step). MaxIters and Horizon are overridden per seed.
	Grad opt.Options
	// SVGThreshold is the minimum inward command change for an SVG
	// edge.
	SVGThreshold float64
	// TargetsPerVictim is how many candidate targets the scheduler
	// pairs with each (victim, direction), ranked by influence.
	TargetsPerVictim int
	// ApproachLead anchors the initial guess: the initial attack
	// window ends when the swarm's leading drone is this many metres
	// (along-track) from the obstacle in the clean run. Successful
	// SPVs distort the formation *before* obstacle avoidance begins;
	// the squeezed formation then collides during its natural passage.
	ApproachLead float64
	// InitDuration is the initial Δt guess in seconds.
	InitDuration float64
	// RandSeed drives the random fuzzers' sampling.
	RandSeed uint64
	// SeedWorkers bounds the speculative seed-search worker pool for
	// the gradient-guided fuzzers (SwarmFuzz, G_Fuzz). 0 or 1 runs the
	// seed walk sequentially. Higher values evaluate scheduled seeds
	// concurrently but commit their results in schedule order, so the
	// Report — seeds tried, first SPV, SimRuns accounting — is
	// byte-identical to the sequential walk. The random-parameter
	// fuzzers (R_Fuzz, S_Fuzz) draw their samples from one shared
	// deterministic stream and therefore always run sequentially,
	// whatever this is set to.
	SeedWorkers int
	// Telemetry receives the pipeline's counters and trace spans; nil
	// disables recording (the hot paths then pay one no-op interface
	// call).
	Telemetry telemetry.Recorder
	// TraceParent is the span the mission's stage spans are parented
	// under (the caller's campaign or mission span); 0 makes them
	// roots.
	TraceParent telemetry.SpanID
	// Flight, when non-nil, receives the mission's forensic flight log:
	// the clean run's step stream, both directions' SVG edges, the
	// scheduled seed order, every search iterate, and — for each
	// finding — the finding itself plus a fully recorded witness re-run
	// of its spoof plan. Nil (the default) disables recording.
	Flight *flightlog.MissionLog
	// Observer, when non-nil, receives the structured convergence
	// stream of the seed walk: one BeginSearch per mission, then per
	// seed a SeedStart, every counted optimizer iterate, and a SeedEnd,
	// closed by EndSearch. All calls are made from the committing
	// goroutine in schedule order — also under SeedWorkers > 1 — so
	// implementations need no locking and fixed-seed streams are
	// deterministic. Nil (the default) disables observation.
	Observer SearchObserver
}

// SearchObserver receives the search-convergence stream of one
// mission's seed walk. The call sequence is
//
//	BeginSearch (SeedStart SeedIterate* SeedEnd)* EndSearch
//
// in seed-schedule order, from a single goroutine. The interface is
// deliberately free of fuzz-package parameter types so observers (the
// atlas collector) can satisfy it without importing this package.
type SearchObserver interface {
	// BeginSearch opens a mission's stream: the mission seed, the
	// clean-run VDO (victim distance to obstacle) and the number of
	// scheduled seeds about to be walked.
	BeginSearch(missionSeed uint64, vdo float64, seeds int)
	// SeedStart announces the next seed of the schedule.
	SeedStart(seed svg.Seed)
	// SeedIterate reports one counted optimizer iterate of the seed's
	// parameter search, in iteration order.
	SeedIterate(seed svg.Seed, it opt.Iterate)
	// SeedEnd closes a seed: iterations consumed, whether it cracked,
	// and the search error ("" = none).
	SeedEnd(seed svg.Seed, iters int, found bool, errMsg string)
	// EndSearch closes the mission's stream with the overall verdict.
	EndSearch(found bool)
}

// DefaultOptions returns the paper's parameterisation.
func DefaultOptions() Options {
	g := opt.DefaultOptions()
	return Options{
		MaxIterPerSeed:   20,
		Grad:             g,
		SVGThreshold:     0.05,
		TargetsPerVictim: 2,
		ApproachLead:     25,
		InitDuration:     12,
		RandSeed:         1,
	}
}

// Validate returns an error when the options are unusable.
func (o Options) Validate() error {
	if o.MaxIterPerSeed < 1 {
		return fmt.Errorf("fuzz: max iterations per seed %d must be >= 1", o.MaxIterPerSeed)
	}
	if o.MaxSeeds < 0 {
		return fmt.Errorf("fuzz: max seeds %d must be >= 0", o.MaxSeeds)
	}
	if o.TargetsPerVictim < 1 {
		return fmt.Errorf("fuzz: targets per victim %d must be >= 1", o.TargetsPerVictim)
	}
	if o.InitDuration <= 0 {
		return fmt.Errorf("fuzz: bad initial duration %v", o.InitDuration)
	}
	if o.ApproachLead < 0 {
		return fmt.Errorf("fuzz: negative approach lead %v", o.ApproachLead)
	}
	if o.SeedWorkers < 0 {
		return fmt.Errorf("fuzz: seed workers %d must be >= 0", o.SeedWorkers)
	}
	g := o.Grad
	g.MaxIters = o.MaxIterPerSeed
	return g.Validate()
}

// Finding is one discovered SPV: the full test-run tuple
// ⟨T−V, t_s, Δt, θ⟩ plus bookkeeping.
type Finding struct {
	// Plan is the spoofing plan that causes the collision.
	Plan gps.SpoofPlan
	// Victim is the drone that collides with the obstacle.
	Victim int
	// Objective is the victim's minimum obstacle clearance under the
	// plan (non-positive).
	Objective float64
	// Iterations is the number of search iterations spent on this
	// seed before the SPV was found.
	Iterations int
}

// String implements fmt.Stringer.
func (f Finding) String() string {
	return fmt.Sprintf("SPV{%v victim=%d f=%.2fm iters=%d}",
		f.Plan, f.Victim, f.Objective, f.Iterations)
}

// Report is the outcome of fuzzing one mission.
type Report struct {
	// Fuzzer is the name of the fuzzer that produced the report.
	Fuzzer string
	// Clean is the initial no-attack test result.
	Clean *sim.Result
	// VDO is the clean run's swarm-level victim distance to obstacle.
	VDO float64
	// Found reports whether at least one SPV was discovered.
	Found bool
	// Findings lists the discovered SPVs (one per successful seed; the
	// fuzzers stop at the first, as the paper's success metric is
	// per-mission).
	Findings []Finding
	// SeedsTried is the number of seeds consumed.
	SeedsTried int
	// IterationsToFind is the total number of search iterations across
	// seeds until the first SPV; when nothing was found it is the
	// total budget consumed.
	IterationsToFind int
	// SimRuns is the total number of mission simulations, including
	// gradient probes and the initial test.
	SimRuns int
	// SeedErrors records per-seed search failures (simulation errors
	// during the parameter search). A non-empty list means the seed
	// walk was aborted; Fuzz also returns the failure as an error so
	// callers cannot mistake an aborted walk for an exhausted one.
	SeedErrors []string
}

// ErrUnsafeMission is returned when the initial no-attack test already
// collides: SwarmFuzz's step 1 requires a successful clean mission.
var ErrUnsafeMission = errors.New("fuzz: mission collides without attack")

// Fuzzer finds SPVs in one mission.
type Fuzzer interface {
	// Name identifies the fuzzer (e.g. "SwarmFuzz", "R_Fuzz").
	Name() string
	// Fuzz runs the fuzzing campaign against one input.
	Fuzz(in Input, opts Options) (*Report, error)
}

// reportRecorder forwards to the campaign's recorder while mirroring
// the sim_runs counter into the report. sim.Run is the only place that
// increments sim_runs, so Report.SimRuns and the metrics snapshot are
// fed by a single counting site and can never disagree. All commits
// into a report happen on the driving goroutine — the speculative seed
// walk buffers its workers' counters and replays them in schedule
// order (see parallel.go) — so the unsynchronised mirror is safe.
type reportRecorder struct {
	telemetry.Recorder
	rep *Report
}

// Add implements telemetry.Recorder.
func (r reportRecorder) Add(name string, delta int64) {
	if name == telemetry.MSimRuns {
		r.rep.SimRuns += int(delta)
	}
	r.Recorder.Add(name, delta)
}

// runClean executes the initial no-attack test with trajectory
// recording (step 1 of Fig. 3). flight may be nil.
func runClean(in Input, rec telemetry.Recorder, flight sim.FlightRecorder) (*sim.Result, error) {
	res, err := sim.Run(in.Mission, sim.RunOptions{
		Controller:       in.Controller,
		RecordTrajectory: true,
		Telemetry:        rec,
		Flight:           flight,
	})
	if err != nil {
		return nil, err
	}
	if len(res.Collisions) > 0 {
		return res, ErrUnsafeMission
	}
	return res, nil
}

// evaluation is a single attacked mission run, returning the victim's
// minimum obstacle clearance and whether the run is a valid SPV
// success: the victim collided with the obstacle, not with the target,
// and not because the target itself crashed into it.
type evaluation struct {
	objective float64
	success   bool
}

// evaluate runs one attacked mission and scores it for victim. prefix
// is the clean run's trajectory: the attacked run resumes from its
// latest fork point before the spoof starts (sim.RunOptions.Prefix),
// since every step before that is identical to the clean run's. A nil
// prefix runs the whole mission.
func evaluate(in Input, plan gps.SpoofPlan, victim int, prefix *sim.Trajectory, rec telemetry.Recorder) (evaluation, error) {
	res, err := sim.Run(in.Mission, sim.RunOptions{
		Controller: in.Controller,
		Spoof:      &plan,
		Telemetry:  rec,
		Prefix:     prefix,
	})
	if err != nil {
		return evaluation{}, err
	}
	ev := evaluation{objective: res.MinClearance[victim]}
	// Only the victim's first collision counts, and only an obstacle
	// hit is a success. The paper does not count collisions caused
	// directly by the target drone; a drone-drone collision involving
	// the victim also invalidates the run.
	if col := res.CollisionOf(victim); col != nil {
		ev.success = col.Kind == sim.KindObstacle
	}
	return ev, nil
}

// approachTime returns the first time at which any drone's along-track
// distance to the obstacle drops below lead metres in the recorded
// clean trajectory. This is when obstacle avoidance is about to begin
// — the moment a formation-distorting attack should end.
func approachTime(m *sim.Mission, traj *sim.Trajectory, lead float64) float64 {
	ob := m.Obstacle()
	for s, t := range traj.Times {
		for _, p := range traj.Positions[s] {
			if ob.Center.Sub(p).Dot(m.Axis) < lead {
				return t
			}
		}
	}
	if n := len(traj.Times); n > 0 {
		return traj.Times[n-1]
	}
	return 0
}

// searchTrace observes one structured search iterate of one seed; the
// sequential walk wires it straight to the flight log's Search record
// and the SearchObserver, the speculative walk to a replay buffer
// committed in schedule order.
type searchTrace func(it opt.Iterate)

// errSpeculationStopped aborts a speculative seed search after an
// earlier seed cracked (or errored). The outcome carrying it is
// discarded by the committer, so it never reaches a Report.
var errSpeculationStopped = errors.New("fuzz: speculative seed search cancelled")

// searchSeed runs the gradient-guided search (step 3 of Fig. 3) for
// one seed and reports the result. trace (nil = none) observes every
// counted iterate; stop (nil = never) is polled before each simulation
// so a cancelled speculative search aborts quickly.
func searchSeed(in Input, seed svg.Seed, clean *sim.Result, opts Options, rec telemetry.Recorder, trace searchTrace, stop func() bool) (opt.Result, *Finding, error) {
	horizon := clean.Duration
	windowEnd := approachTime(in.Mission, clean.Trajectory, opts.ApproachLead)
	ts0 := math.Max(0, windowEnd-opts.InitDuration)
	dt0 := opts.InitDuration

	// objective runs one attacked simulation. It polls stop before
	// each simulation and keeps the first simulation error in simErr;
	// once set, every later evaluation returns +Inf without simulating.
	// The small-positive clamp below keeps the optimizer from declaring
	// victory on an invalid collision (e.g. drone-drone): the victim's
	// clearance went non-positive, but not the way an SPV requires.
	var simErr error
	objective := func(ts, dt float64) float64 {
		if simErr == nil && stop != nil && stop() {
			simErr = errSpeculationStopped
		}
		if simErr != nil {
			return math.Inf(1)
		}
		plan := gps.SpoofPlan{
			Target:    seed.Target,
			Start:     ts,
			Duration:  dt,
			Direction: seed.Direction,
			Distance:  in.SpoofDistance,
		}
		ev, err := evaluate(in, plan, seed.Victim, clean.Trajectory, rec)
		if err != nil {
			simErr = err
			return math.Inf(1)
		}
		if !ev.success && ev.objective <= 0 {
			return 0.01
		}
		return ev.objective
	}

	// The landscape has flat plateaus away from the narrow collision
	// valley, so a stalled descent wastes its remaining budget. The
	// per-seed iteration budget (paper: 20) is therefore spent over a
	// deterministic multi-start schedule around the initial guess; the
	// first start is the analytical guess itself.
	starts := [][2]float64{
		{ts0, dt0},
		{ts0 - dt0/2, dt0 / 2},
		{ts0 + dt0/3, dt0 * 1.5},
		{ts0 - dt0, dt0},
	}
	acc := opt.Result{Value: math.Inf(1)}
	budget := opts.MaxIterPerSeed
	for _, s := range starts {
		if budget <= 0 {
			break
		}
		g := opts.Grad
		g.MaxIters = budget
		g.Horizon = horizon
		if trace != nil {
			// The iterate trail numbers iterations across the whole
			// multi-start schedule, matching the per-seed budget
			// accounting; opt.Observe fires exactly once per counted
			// iterate.
			base := acc.Iters
			g.Observe = func(it opt.Iterate) {
				it.Iter += base
				trace(it)
			}
		}
		res, err := opt.Minimize(objective, math.Max(s[0], 0), math.Max(s[1], 0.5), g)
		if err != nil {
			return acc, nil, err
		}
		if simErr != nil {
			return acc, nil, simErr
		}
		budget -= res.Iters
		acc.Iters += res.Iters
		acc.Evals += res.Evals
		if res.Value < acc.Value {
			acc.TS, acc.DT, acc.Value = res.TS, res.DT, res.Value
		}
		if res.Found {
			acc.Found = true
			return acc, &Finding{
				Plan: gps.SpoofPlan{
					Target:    seed.Target,
					Start:     res.TS,
					Duration:  res.DT,
					Direction: seed.Direction,
					Distance:  in.SpoofDistance,
				},
				Victim:     seed.Victim,
				Objective:  res.Value,
				Iterations: acc.Iters,
			}, nil
		}
	}
	return acc, nil, nil
}
