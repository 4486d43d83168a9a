package fuzz

import (
	"fmt"
	"math"

	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/metrics"
	"swarmfuzz/internal/opt"
	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/svg"
	"swarmfuzz/internal/telemetry"
)

// The three ablation fuzzers of §V-C. Each disables one or both of
// SwarmFuzz's heuristics:
//
//	R_Fuzz: random seeds, random parameters (neither heuristic)
//	G_Fuzz: random seeds, gradient-guided parameters (no SVG)
//	S_Fuzz: SVG-scheduled seeds, random parameters (no gradient)

// RFuzz chooses drone pairs and spoofing parameters uniformly at
// random.
type RFuzz struct{}

var _ Fuzzer = RFuzz{}

// Name implements Fuzzer.
func (RFuzz) Name() string { return "R_Fuzz" }

// Fuzz implements Fuzzer. R_Fuzz samples its parameters from the
// shared mission RNG, so its seed walk is inherently sequential.
func (RFuzz) Fuzz(in Input, opts Options) (*Report, error) {
	return fuzzWith(in, opts, RFuzz{}.Name(), randomSeeds, randomSearch, "random_search", false)
}

// GFuzz chooses drone pairs randomly but searches the spoofing
// parameters with gradient descent.
type GFuzz struct{}

var _ Fuzzer = GFuzz{}

// Name implements Fuzzer.
func (GFuzz) Name() string { return "G_Fuzz" }

// Fuzz implements Fuzzer. The gradient search draws no randomness, so
// G_Fuzz's seed walk may run speculatively in parallel.
func (GFuzz) Fuzz(in Input, opts Options) (*Report, error) {
	return fuzzWith(in, opts, GFuzz{}.Name(), randomSeeds, gradientSearch, "gradient_search", true)
}

// SFuzz schedules drone pairs with the SVG but samples the spoofing
// parameters randomly.
type SFuzz struct{}

var _ Fuzzer = SFuzz{}

// Name implements Fuzzer.
func (SFuzz) Name() string { return "S_Fuzz" }

// Fuzz implements Fuzzer. S_Fuzz samples its parameters from the
// shared mission RNG, so its seed walk is inherently sequential.
func (SFuzz) Fuzz(in Input, opts Options) (*Report, error) {
	return fuzzWith(in, opts, SFuzz{}.Name(), scheduledSeeds, randomSearch, "random_search", false)
}

// seedFn produces the ordered seed list for a mission.
type seedFn func(in Input, clean *cleanRun, opts Options, rec telemetry.Recorder) ([]svg.Seed, error)

// searchFn searches one seed's parameter space; it returns the
// iterations consumed and a finding if an SPV was discovered.
// Simulation runs are counted by sim.Run itself via the recorder.
// trace (nil = none) observes every search iterate; stop (nil =
// never) is polled between simulations so speculative searches can be
// cancelled.
type searchFn func(in Input, seed svg.Seed, clean *cleanRun, opts Options, rec telemetry.Recorder, trace searchTrace, stop func() bool) (iters int, f *Finding, err error)

// randSeed is mixed into each mission's seed to derive the random
// fuzzers' sampling stream.
const randSeed = 1

// cleanRun bundles the initial test result with the RNG used by the
// random strategies, so randomness flows deterministically from the
// mission seed.
type cleanRun struct {
	res *sim.Result
	src *rng.Source
}

// fuzzWith is the instrumented fuzzing driver shared by all fuzzers:
// clean run, seed scheduling, then the per-seed parameter search. Each
// stage is traced (clean_run, seed_scheduling, then one searchStage
// span per seed) and the stage counters feed the campaign registry.
// parallelizable marks search as free of shared mutable state between
// seeds, enabling the speculative walk when Options.SeedWorkers > 1.
func fuzzWith(in Input, opts Options, name string, mkSeeds seedFn, search searchFn, searchStage string, parallelizable bool) (*Report, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	// Speculative workers beyond the machine's usable parallelism only
	// add scheduling and channel overhead (on a single-core box,
	// workers=4 measured ~5% slower than sequential). Results are
	// byte-identical at any worker count, so clamping is observably
	// safe.
	opts.SeedWorkers = clampWorkers(opts.SeedWorkers)
	rep := &Report{Fuzzer: name}
	rec := reportRecorder{telemetry.OrNop(opts.Telemetry), rep}

	var cleanFlight sim.FlightRecorder
	if opts.Flight != nil {
		cleanFlight = opts.Flight.Recorder("clean")
	}
	span := rec.StartSpan(opts.TraceParent, "clean_run")
	clean, err := runClean(in, rec, cleanFlight)
	rep.Clean = clean
	if err != nil {
		span.End(telemetry.KV("err", err.Error()))
		return rep, err
	}
	span.End(telemetry.KV("duration_s", clean.Duration))
	rep.VDO, _ = metrics.VDO(clean.MinClearance)

	cr := &cleanRun{
		res: clean,
		src: rng.Derive(randSeed^in.Mission.Config.Seed, "fuzz/"+name),
	}
	span = rec.StartSpan(opts.TraceParent, "seed_scheduling")
	seeds, err := mkSeeds(in, cr, opts, rec)
	if err != nil {
		span.End(telemetry.KV("err", err.Error()))
		return rep, err
	}
	if opts.MaxSeeds > 0 && len(seeds) > opts.MaxSeeds {
		seeds = seeds[:opts.MaxSeeds]
	}
	span.End(telemetry.KV("seeds", len(seeds)))
	rec.Add(telemetry.MSeedsScheduled, int64(len(seeds)))
	if opts.Flight != nil {
		opts.Flight.Seeds(seeds)
	}
	if opts.Observer != nil {
		opts.Observer.BeginSearch(in.Mission.Config.Seed, rep.VDO, len(seeds))
		defer func() { opts.Observer.EndSearch(rep.Found) }()
	}

	// next yields seed i's search outcome. The sequential walk searches
	// inline; the speculative walk replays the outcome its worker pool
	// buffered. Either way the commit below is the walk's only one.
	next := func(i int) (int, *Finding, error) {
		return search(in, seeds[i], cr, opts, rec, seedTrace(opts, seeds[i]), nil)
	}
	if opts.SeedWorkers > 1 && parallelizable && len(seeds) > 1 {
		var stop func()
		next, stop = speculate(in, opts, search, cr, seeds, rec)
		defer stop()
	}

	for i, seed := range seeds {
		rep.SeedsTried++
		span := rec.StartSpan(opts.TraceParent, searchStage,
			telemetry.KV("target", seed.Target),
			telemetry.KV("victim", seed.Victim),
			telemetry.KV("direction", seed.Direction.String()))
		if opts.Observer != nil {
			opts.Observer.SeedStart(seed)
		}
		iters, finding, err := next(i)
		rep.IterationsToFind += iters
		rec.Add(telemetry.MSearchIters, int64(iters))
		span.End(telemetry.KV("iters", iters), telemetry.KV("found", finding != nil))
		if opts.Observer != nil {
			opts.Observer.SeedEnd(seed, iters, finding != nil, errString(err))
		}
		if err != nil {
			rep.SeedErrors = append(rep.SeedErrors,
				fmt.Sprintf("seed T%d-V%d: %v", seed.Target, seed.Victim, err))
			return rep, fmt.Errorf("fuzz: seed T%d-V%d search failed: %w", seed.Target, seed.Victim, err)
		}
		if finding != nil {
			rec.Add(telemetry.MSeedsCracked, 1)
			rec.Set(telemetry.MBestObjective, finding.Objective)
			rep.Found = true
			rep.Findings = append(rep.Findings, *finding)
			recordWitness(in, *finding, opts, rec)
			return rep, nil
		}
	}
	return rep, nil
}

// seedTrace builds the per-seed iterate sink feeding the flight log
// and the search observer; nil when neither is recording (so searches
// skip the trace plumbing entirely).
func seedTrace(opts Options, seed svg.Seed) searchTrace {
	if opts.Flight == nil && opts.Observer == nil {
		return nil
	}
	return func(it opt.Iterate) {
		if opts.Flight != nil {
			opts.Flight.Search(seed, it.Iter, it.TS, it.DT, it.Value)
		}
		if opts.Observer != nil {
			opts.Observer.SeedIterate(seed, it)
		}
	}
}

// errString renders an error for observer consumption ("" = none).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// recordWitness logs a finding to the flight log and re-runs its spoof
// plan with full step recording, so every cracked seed ships with an
// explorable witness trace. A witness failure is recorded in the log's
// run_end record rather than propagated: forensics must not change the
// fuzzing verdict. No-op when flight recording is disabled.
func recordWitness(in Input, f Finding, opts Options, rec telemetry.Recorder) {
	if opts.Flight == nil {
		return
	}
	opts.Flight.Finding(f.Plan, f.Victim, f.Objective)
	plan := f.Plan
	// The witness run's error (if any) lands in the run_end record via
	// EndFlight; the result itself is already summarised by the finding.
	_, _ = sim.Run(in.Mission, sim.RunOptions{
		Controller: in.Controller,
		Spoof:      &plan,
		Telemetry:  rec,
		Flight:     opts.Flight.Recorder("witness"),
	})
}

// randomSeeds samples as many random ⟨T−V, θ⟩ seeds as the SVG
// scheduler would produce at most: one per (victim, direction).
func randomSeeds(in Input, clean *cleanRun, _ Options, _ telemetry.Recorder) ([]svg.Seed, error) {
	n := in.Mission.Config.NumDrones
	count := 2 * n
	seeds := make([]svg.Seed, 0, count)
	for k := 0; k < count; k++ {
		t := clean.src.Intn(n)
		v := clean.src.Intn(n - 1)
		if v >= t {
			v++
		}
		dir := gps.Right
		if clean.src.Bool(0.5) {
			dir = gps.Left
		}
		seeds = append(seeds, svg.Seed{
			Target:    t,
			Victim:    v,
			Direction: dir,
			VDO:       clean.res.MinClearance[v],
		})
	}
	return seeds, nil
}

// scheduledSeeds is the SVG scheduling shared with SwarmFuzz.
func scheduledSeeds(in Input, clean *cleanRun, opts Options, rec telemetry.Recorder) ([]svg.Seed, error) {
	return scheduleSeeds(in, clean.res, opts, rec)
}

// gradientSearch is the gradient-guided search shared with SwarmFuzz.
func gradientSearch(in Input, seed svg.Seed, clean *cleanRun, opts Options, rec telemetry.Recorder, trace searchTrace, stop func() bool) (int, *Finding, error) {
	res, finding, err := searchSeed(in, seed, clean.res, opts, rec, trace, stop)
	return res.Iters, finding, err
}

// randomSearch samples (t_s, Δt) uniformly for up to MaxIterPerSeed
// iterations. It draws from the shared mission stream, which is why
// the random fuzzers are never run on the speculative walk and so
// never need to poll stop.
func randomSearch(in Input, seed svg.Seed, clean *cleanRun, opts Options, rec telemetry.Recorder, trace searchTrace, _ func() bool) (int, *Finding, error) {
	horizon := clean.res.Duration
	iters := 0
	best := math.Inf(1)
	for iter := 0; iter < opts.MaxIterPerSeed; iter++ {
		ts := clean.src.Uniform(0, horizon)
		dt := clean.src.Uniform(0, math.Min(horizon-ts, 4*initDuration))
		plan := gps.SpoofPlan{
			Target:    seed.Target,
			Start:     ts,
			Duration:  dt,
			Direction: seed.Direction,
			Distance:  in.SpoofDistance,
		}
		ev, err := evaluate(in, plan, seed.Victim, clean.res.Trajectory, rec)
		iters++
		if err != nil {
			return iters, nil, err
		}
		accepted := ev.objective < best
		if accepted {
			best = ev.objective
		}
		if trace != nil {
			// Random sampling has no gradient or step: the structured
			// iterate carries the probe-termination sentinel values.
			trace(opt.Iterate{Iter: iter, TS: ts, DT: dt, Value: ev.objective, GradNorm: -1, Accepted: accepted})
		}
		if ev.success {
			return iters, &Finding{
				Plan:       plan,
				Victim:     seed.Victim,
				Objective:  ev.objective,
				Iterations: iters,
			}, nil
		}
	}
	return iters, nil, nil
}
