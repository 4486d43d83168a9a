// Package experiments regenerates every table and figure of the
// paper's evaluation (§V). Each experiment runs fuzzing campaigns over
// randomly generated missions — exactly as the paper does: per swarm
// configuration, sample missions, keep those whose initial no-attack
// test succeeds, fuzz each one, and aggregate.
//
// The experiment entry points are pure functions returning typed
// results; cmd/experiments and bench_test.go render them.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"swarmfuzz/internal/atlas"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/metrics"
	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/telemetry"
)

// Config parameterises a campaign.
type Config struct {
	// SwarmSizes are the swarm sizes evaluated (paper: 5, 10, 15).
	SwarmSizes []int
	// SpoofDistances are the GPS spoofing deviations (paper: 5, 10).
	SpoofDistances []float64
	// Missions is the number of clean-safe missions fuzzed per
	// configuration (paper: 100).
	Missions int
	// BaseSeed offsets the mission seed stream.
	BaseSeed uint64
	// Fuzz carries the fuzzer options.
	Fuzz fuzz.Options
	// Workers bounds campaign parallelism; 0 means GOMAXPROCS.
	Workers int
	// MissionTimeout is the per-mission fuzzing deadline; a mission
	// that exceeds it is recorded as an errored outcome. 0 disables
	// the deadline.
	MissionTimeout time.Duration
	// Retry governs re-attempts of transiently-failed missions
	// (deadline misses and errors marked robust.Transient). The zero
	// value means a single attempt.
	Retry robust.Policy
	// Checkpoint, when non-empty, is a directory Grid persists each
	// completed cell into (one JSON file per cell, written
	// atomically); a resumed Grid run loads finished cells from it
	// instead of re-fuzzing them.
	Checkpoint string
	// FlightDir, when non-empty, is a directory mission flight logs are
	// archived into (one <name>.flight.jsonl per recorded mission). To
	// bound disk across large campaigns, only cracked or degraded
	// missions are recorded — each as a post-hoc forensic re-run: the
	// clean mission plus, for cracked missions, a witness run of the
	// discovered spoof plan.
	FlightDir string
	// Postmortem renders a self-contained HTML post-mortem next to each
	// recorded flight log. Ignored unless FlightDir is set.
	Postmortem bool
	// AtlasPath, when non-empty, is the file Grid writes the search-atlas
	// JSONL artifact to: per-seed convergence trails, mission verdicts
	// and per-cell landscape aggregates, in deterministic grid order.
	// With Checkpoint also set, per-cell fragments are persisted next to
	// the checkpoints and a resumed run reproduces the artifact
	// byte-for-byte.
	AtlasPath string
	// Telemetry receives campaign counters and trace spans, and is
	// threaded down through fuzzing into the simulator; nil disables
	// recording.
	Telemetry telemetry.Recorder
	// Log receives human-facing progress lines (conventionally on
	// stderr, so stdout stays machine-parseable); nil is silent.
	Log *telemetry.Logger
}

// DefaultConfig returns the paper's evaluation campaign, scaled by
// missions per configuration.
func DefaultConfig(missions int) Config {
	return Config{
		SwarmSizes:     []int{5, 10, 15},
		SpoofDistances: []float64{5, 10},
		Missions:       missions,
		BaseSeed:       1,
		Fuzz:           fuzz.DefaultOptions(),
		Retry:          robust.DefaultPolicy(),
	}
}

// MissionOutcome is the fuzzing outcome for one mission.
type MissionOutcome struct {
	// Seed is the mission seed.
	Seed uint64
	// VDO is the clean run's victim distance to the obstacle.
	VDO float64
	// Found reports whether an SPV was discovered.
	Found bool
	// Iterations is the number of search iterations until the SPV was
	// found (meaningful when Found).
	Iterations int
	// Start and Duration are the discovered spoofing parameters
	// (meaningful when Found).
	Start, Duration float64
	// Target, Victim, Direction and Objective complete the finding's
	// test-run tuple ⟨T−V, t_s, Δt, θ⟩ (meaningful when Found); they
	// let forensics reconstruct and re-run the exact spoof plan.
	Target    int     `json:",omitempty"`
	Victim    int     `json:",omitempty"`
	Direction int     `json:",omitempty"`
	Objective float64 `json:",omitempty"`
	// Err is the failure that degraded this mission (panic, deadline,
	// divergence, …), empty for a healthy outcome. Errored missions
	// stay in the cell — counted as not-found — so one bad mission
	// never aborts a campaign.
	Err string `json:",omitempty"`
	// Retries is how many extra fuzzing attempts the mission needed
	// (0 when the first attempt settled it).
	Retries int `json:",omitempty"`
	// Search summarises the mission's seed-search convergence (recorded
	// only when atlas collection is enabled; nil for degraded missions).
	// A fresh cell folds it into its cell_end record; a resumed cell
	// replays its recorded fragment and reads none. It stays in the
	// checkpoint so that checkpoint bytes do not change.
	Search *atlas.MissionSearch `json:",omitempty"`
}

// SpoofPlan rebuilds the finding's spoof plan from the outcome's
// test-run tuple at spoof distance d, the cell's. It is meaningful only
// when Found; callers validate it, since an outcome checkpointed before
// the tuple was recorded (or from a stub fuzzer) carries none.
func (o MissionOutcome) SpoofPlan(spoofDistance float64) gps.SpoofPlan {
	return gps.SpoofPlan{
		Target:    o.Target,
		Start:     o.Start,
		Duration:  o.Duration,
		Direction: gps.Direction(o.Direction),
		Distance:  spoofDistance,
	}
}

// CampaignResult aggregates one (swarm size, spoof distance) cell.
type CampaignResult struct {
	// SwarmSize and SpoofDistance identify the configuration.
	SwarmSize     int
	SpoofDistance float64
	// Outcomes holds one entry per clean-safe mission fuzzed.
	Outcomes []MissionOutcome
	// SkippedUnsafe counts sampled missions rejected by the initial
	// no-attack test.
	SkippedUnsafe int

	// atlasFragment holds the cell's atlas JSONL stream (cell record,
	// mission streams in job order, cell_end aggregate) when atlas
	// collection is enabled. Deliberately unexported: checkpoints carry
	// it as a sibling file, not inside the cell JSON.
	atlasFragment []byte
}

// Errored returns the number of degraded (errored) mission outcomes.
func (c *CampaignResult) Errored() int {
	n := 0
	for _, o := range c.Outcomes {
		if o.Err != "" {
			n++
		}
	}
	return n
}

// SuccessRate returns the fraction of missions with an SPV found.
func (c *CampaignResult) SuccessRate() float64 {
	hits := 0
	for _, o := range c.Outcomes {
		if o.Found {
			hits++
		}
	}
	return metrics.Rate(hits, len(c.Outcomes))
}

// AvgIterations returns the mean number of search iterations over the
// missions where an SPV was found (Table II's metric).
func (c *CampaignResult) AvgIterations() float64 {
	var iters []float64
	for _, o := range c.Outcomes {
		if o.Found {
			iters = append(iters, float64(o.Iterations))
		}
	}
	return metrics.Mean(iters)
}

// VDOs returns the clean-run VDO of every fuzzed mission.
func (c *CampaignResult) VDOs() []float64 {
	out := make([]float64, len(c.Outcomes))
	for i, o := range c.Outcomes {
		out[i] = o.VDO
	}
	return out
}

// Successes returns, aligned with VDOs, whether each mission was
// cracked.
func (c *CampaignResult) Successes() []bool {
	out := make([]bool, len(c.Outcomes))
	for i, o := range c.Outcomes {
		out[i] = o.Found
	}
	return out
}

// FoundParams returns the spoofing start times and durations of all
// findings (Fig. 7's data).
func (c *CampaignResult) FoundParams() (starts, durations []float64) {
	for _, o := range c.Outcomes {
		if o.Found {
			starts = append(starts, o.Start)
			durations = append(durations, o.Duration)
		}
	}
	return starts, durations
}

// RunCampaign fuzzes cfg.Missions clean-safe missions of the given
// configuration with the given fuzzer and returns the aggregated cell.
// Mission seeds are drawn sequentially from the base seed; missions
// whose initial test collides are counted in SkippedUnsafe and
// replaced, mirroring SwarmFuzz's step-1 precondition.
//
// The campaign is fault-isolated: a mission whose fuzzing panics,
// diverges, or exceeds cfg.MissionTimeout is retried per cfg.Retry
// and, if still failing, recorded as a degraded outcome (Err set,
// Found false) — the rest of the cell completes. Only campaign-setup
// failures (mission generation, the sequential clean runs) and ctx
// cancellation abort the cell.
func RunCampaign(ctx context.Context, cfg Config, fuzzer fuzz.Fuzzer, swarmSize int, spoofDistance float64) (*CampaignResult, error) {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rec := telemetry.OrNop(cfg.Telemetry)
	span := rec.StartSpan(0, "campaign",
		telemetry.KV("fuzzer", fuzzer.Name()),
		telemetry.KV("swarm_size", swarmSize),
		telemetry.KV("spoof_distance", spoofDistance))
	defer span.End()
	cfg.Log.Debugf("campaign %s: %d drones, %gm spoofing, %d missions",
		fuzzer.Name(), swarmSize, spoofDistance, cfg.Missions)

	result := &CampaignResult{SwarmSize: swarmSize, SpoofDistance: spoofDistance}

	// Missions are fuzzed in parallel; seeds are handed out
	// sequentially and unsafe missions are skipped. To keep the
	// outcome set deterministic regardless of scheduling, we first
	// select the clean-safe seeds sequentially (cheap runs), then fan
	// out the expensive fuzzing.
	jobs, err := selectCleanSafe(ctx, cfg, ctrl, swarmSize, result)
	if err != nil {
		return nil, err
	}
	rec.Add(telemetry.MMissionsPlanned, int64(len(jobs)))

	outcomes := make([]MissionOutcome, len(jobs))
	atlasStreams := make([][]byte, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i, j := range jobs {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int, j campaignJob) {
			defer wg.Done()
			defer func() { <-sem }()
			o, stream := fuzzMission(ctx, cfg, fuzzer, ctrl, spoofDistance, j.seed, j.mission, j.cleanVDO, span.ID())
			// Forensics are recorded post-verdict, and only for cracked
			// or degraded missions, so healthy campaign cells cost no
			// disk and no extra simulation time.
			if cfg.FlightDir != "" && (o.Found || o.Err != "") {
				recordForensics(cfg, ctrl, spoofDistance, j.mission, o)
			}
			outcomes[i] = o
			atlasStreams[i] = stream
		}(i, j)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	result.Outcomes = outcomes
	if cfg.AtlasPath != "" {
		frag, err := buildCellFragment(swarmSize, spoofDistance, atlasStreams, outcomes)
		if err != nil {
			return nil, err
		}
		result.atlasFragment = frag
	}
	return result, nil
}

// campaignJob is one clean-safe mission selected for fuzzing.
type campaignJob struct {
	seed     uint64
	mission  *sim.Mission
	cleanVDO float64
}

// selectCleanSafe is the campaign's phase 1: walk the sequential seed
// stream, run each candidate mission clean, keep the clean-safe ones
// until cfg.Missions jobs are selected.
func selectCleanSafe(ctx context.Context, cfg Config, ctrl sim.Controller,
	swarmSize int, result *CampaignResult) ([]campaignJob, error) {
	var jobs []campaignJob
	for seed := cfg.BaseSeed; len(jobs) < cfg.Missions; seed++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if seed-cfg.BaseSeed > uint64(cfg.Missions)*100 {
			return nil, fmt.Errorf("experiments: could not find %d clean-safe missions (n=%d)",
				cfg.Missions, swarmSize)
		}
		mission, err := sim.NewMission(sim.DefaultMissionConfig(swarmSize, seed))
		if err != nil {
			return nil, err
		}
		clean, err := sim.Run(mission, sim.RunOptions{Controller: ctrl, Telemetry: cfg.Telemetry})
		if err != nil {
			return nil, err
		}
		if len(clean.Collisions) > 0 || !clean.Completed {
			result.SkippedUnsafe++
			continue
		}
		vdo, _ := metrics.VDO(clean.MinClearance)
		jobs = append(jobs, campaignJob{seed: seed, mission: mission, cleanVDO: vdo})
	}
	return jobs, nil
}

// fuzzMission runs one mission's fuzzing under the fault-isolation
// layer: panics become errors, the per-mission deadline is enforced,
// and transient failures are retried. Failures degrade the outcome
// instead of propagating. Each mission gets its own trace span (the
// fuzzer's stage spans nest under it) and feeds the campaign counters
// the progress reporter derives its summary from.
//
// With cfg.AtlasPath set the mission's search is recorded into an atlas
// collector and the record stream returned alongside the outcome. Each
// retry attempt records afresh (see fuzzAttempt), and a mission that
// ultimately degrades contributes no atlas bytes at all.
func fuzzMission(ctx context.Context, cfg Config, fuzzer fuzz.Fuzzer, ctrl sim.Controller,
	spoofDistance float64, seed uint64, mission *sim.Mission, cleanVDO float64,
	campaign telemetry.SpanID) (MissionOutcome, []byte) {
	o := MissionOutcome{Seed: seed, VDO: cleanVDO}
	rec := telemetry.OrNop(cfg.Telemetry)
	span := rec.StartSpan(campaign, "mission", telemetry.KV("seed", seed))
	fopts := cfg.Fuzz
	fopts.Telemetry = cfg.Telemetry
	fopts.TraceParent = span.ID()
	in := fuzz.Input{Mission: mission, Controller: ctrl, SpoofDistance: spoofDistance}
	a, attempts, err := robust.Retry(ctx, cfg.Retry, func(ctx context.Context) (attempt, error) {
		return fuzzAttempt(ctx, fuzzer, in, fopts, cfg.MissionTimeout, cfg.AtlasPath != "")
	})
	o.Retries = attempts - 1
	defer func() {
		rec.Add(telemetry.MMissionsDone, 1)
		rec.Add(telemetry.MMissionRetries, int64(o.Retries))
		if o.Found {
			rec.Add(telemetry.MMissionsCracked, 1)
		}
		span.End(telemetry.KV("found", o.Found),
			telemetry.KV("retries", o.Retries),
			telemetry.KV("degraded", o.Err != ""))
	}()
	if err != nil {
		rec.Add(telemetry.MMissionErrors, 1)
		switch {
		case errors.Is(err, robust.ErrPanic):
			rec.Add(telemetry.MMissionPanics, 1)
		case errors.Is(err, robust.ErrDeadline):
			rec.Add(telemetry.MMissionDeadlineHits, 1)
		}
		cfg.Log.Warnf("mission seed %d degraded after %d attempts: %v", seed, attempts, err)
		// A cancelled campaign discards the cell anyway; anything else
		// is this mission's own failure and degrades only its outcome.
		o.Err = err.Error()
		return o, nil
	}
	rep := a.rep
	o.VDO = rep.VDO
	o.Found = rep.Found
	if rep.Found {
		o.Iterations = rep.IterationsToFind
		o.Start = rep.Findings[0].Plan.Start
		o.Duration = rep.Findings[0].Plan.Duration
		o.Target = rep.Findings[0].Plan.Target
		o.Victim = rep.Findings[0].Victim
		o.Direction = int(rep.Findings[0].Plan.Direction)
		o.Objective = rep.Findings[0].Objective
	}
	o.Search = a.search
	return o, a.stream
}

// Grid runs the full size × distance campaign grid (Tables I and II,
// Figs. 6 and 7) with the given fuzzer. With cfg.Checkpoint set, each
// completed cell is persisted atomically and a restarted Grid resumes
// from the finished cells; an interrupted cell re-runs from scratch,
// which — the campaign being deterministic — yields the same cell an
// uninterrupted run would have produced. On cancellation Grid returns
// the cells completed so far alongside ctx.Err().
func Grid(ctx context.Context, cfg Config, fuzzer fuzz.Fuzzer) ([]*CampaignResult, error) {
	rec := telemetry.OrNop(cfg.Telemetry)
	var out []*CampaignResult
	for _, d := range cfg.SpoofDistances {
		for _, n := range cfg.SwarmSizes {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			if cfg.Checkpoint != "" {
				cell, err := resumeCell(cfg, n, d)
				if err != nil {
					return out, err
				}
				if cell != nil {
					out = append(out, cell)
					continue
				}
			}
			cell, err := RunCampaign(ctx, cfg, fuzzer, n, d)
			if err != nil {
				return out, err
			}
			if cfg.Checkpoint != "" {
				span := rec.StartSpan(0, "checkpoint_save",
					telemetry.KV("swarm_size", n), telemetry.KV("spoof_distance", d))
				data, err := EncodeCell(cell)
				if err == nil {
					err = commitCell(cfg.Checkpoint, n, d, data, cell.atlasFragment)
				}
				span.End()
				if err != nil {
					return out, err
				}
				rec.Add(telemetry.MCheckpointSaves, 1)
			}
			out = append(out, cell)
		}
	}
	if cfg.AtlasPath != "" {
		if err := writeAtlasArtifact(cfg.AtlasPath, fuzzer.Name(), out); err != nil {
			return out, err
		}
	}
	return out, nil
}

// resumeCell returns the (swarmSize, spoofDistance) cell checkpointed
// in cfg.Checkpoint, or nil when there is none. It fails when the cell
// was run with another mission count or base seed, and with
// cfg.AtlasPath set it attaches the cell's recorded atlas fragment.
func resumeCell(cfg Config, swarmSize int, spoofDistance float64) (*CampaignResult, error) {
	rec := telemetry.OrNop(cfg.Telemetry)
	span := rec.StartSpan(0, "checkpoint_load",
		telemetry.KV("swarm_size", swarmSize), telemetry.KV("spoof_distance", spoofDistance))
	cell, err := LoadCheckpoint(cfg.Checkpoint, swarmSize, spoofDistance)
	span.End(telemetry.KV("hit", cell != nil))
	if err != nil || cell == nil {
		return nil, err
	}
	rec.Add(telemetry.MCheckpointLoads, 1)
	cfg.Log.Infof("cell n=%d d=%gm resumed from checkpoint %s", swarmSize, spoofDistance, cfg.Checkpoint)
	path := filepath.Join(cfg.Checkpoint, checkpointFile(swarmSize, spoofDistance))
	if len(cell.Outcomes) != cfg.Missions {
		return nil, fmt.Errorf("experiments: checkpoint %s holds %d missions, want %d; use a fresh -checkpoint dir when changing -missions",
			path, len(cell.Outcomes), cfg.Missions)
	}
	if !drawnFrom(cell, cfg) {
		return nil, fmt.Errorf("experiments: checkpoint %s was not drawn from base seed %d; use a fresh -checkpoint dir when changing -seed",
			path, cfg.BaseSeed)
	}
	if cfg.AtlasPath != "" {
		// The fragment is written before its checkpoint, so a resumed
		// cell replays the recorded bytes verbatim and the final
		// artifact matches an uninterrupted run.
		frag, err := readCellFragment(cfg.Checkpoint, swarmSize, spoofDistance)
		if err != nil {
			return nil, err
		}
		cell.atlasFragment = frag
	}
	return cell, nil
}

// drawnFrom reports whether a checkpointed cell's outcomes come from
// cfg's seed stream. selectCleanSafe walks seeds upward from BaseSeed
// and stops at the last job, so the outcome seeds rise strictly, start
// at or after BaseSeed and end exactly at
// BaseSeed + Missions + SkippedUnsafe - 1.
func drawnFrom(cell *CampaignResult, cfg Config) bool {
	outs := cell.Outcomes
	if len(outs) == 0 {
		return true
	}
	for i := 1; i < len(outs); i++ {
		if outs[i].Seed <= outs[i-1].Seed {
			return false
		}
	}
	last := cfg.BaseSeed + uint64(cfg.Missions+cell.SkippedUnsafe) - 1
	return outs[0].Seed >= cfg.BaseSeed && outs[len(outs)-1].Seed == last
}

// CellFor returns the grid cell with the given configuration, or nil.
func CellFor(cells []*CampaignResult, swarmSize int, spoofDistance float64) *CampaignResult {
	for _, c := range cells {
		if c.SwarmSize == swarmSize && c.SpoofDistance == spoofDistance {
			return c
		}
	}
	return nil
}

// SortedVDOThresholds returns the sorted distinct VDO values of a
// cell, for cumulative-success-rate curves.
func SortedVDOThresholds(c *CampaignResult) []float64 {
	vdos := c.VDOs()
	sort.Float64s(vdos)
	out := vdos[:0]
	last := -1.0
	for _, v := range vdos {
		if v != last {
			out = append(out, v)
			last = v
		}
	}
	return out
}
