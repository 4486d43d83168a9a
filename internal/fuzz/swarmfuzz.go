package fuzz

import (
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/graph"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/svg"
	"swarmfuzz/internal/telemetry"
)

// SwarmFuzz is the full fuzzer: SVG-based seed scheduling plus
// gradient-guided parameter search. It runs on the same instrumented
// driver as the ablation fuzzers (fuzzWith), with both heuristics
// enabled.
type SwarmFuzz struct{}

var _ Fuzzer = SwarmFuzz{}

// Name implements Fuzzer.
func (SwarmFuzz) Name() string { return "SwarmFuzz" }

// Fuzz implements Fuzzer.
func (SwarmFuzz) Fuzz(in Input, opts Options) (*Report, error) {
	return fuzzWith(in, opts, SwarmFuzz{}.Name(), scheduledSeeds, gradientSearch, "gradient_search", true)
}

// scheduleSeeds builds both directions' SVGs at t_clo and orders the
// target-victim seeds (step 2 of Fig. 3).
func scheduleSeeds(in Input, clean *sim.Result, opts Options, rec telemetry.Recorder) ([]svg.Seed, error) {
	// t_clo restricted to the obstacle-interaction phase (±40 m of the
	// obstacle along-track): the SVG probes influence *toward the
	// obstacle*, which is only meaningful there.
	snap, err := svg.ClosestSnapshotNearObstacle(clean.Trajectory, in.Mission, 40)
	if err != nil {
		return nil, err
	}
	cfg := svg.Config{
		SpoofDistance:      in.SpoofDistance,
		InfluenceThreshold: opts.SVGThreshold,
		PageRank:           graph.DefaultPageRankOptions(),
	}
	graphs := make(map[gps.Direction]*graph.Digraph, 2)
	for _, dir := range []gps.Direction{gps.Right, gps.Left} {
		g, err := svg.Build(in.Controller, &in.Mission.World, in.Mission.Axis, snap, dir, cfg)
		if err != nil {
			return nil, err
		}
		rec.Add(telemetry.MSVGBuilds, 1)
		graphs[dir] = g
		if opts.Flight != nil {
			opts.Flight.SVG(dir, g)
		}
	}
	return svg.ScheduleK(graphs, clean.MinClearance, cfg.PageRank, opts.TargetsPerVictim)
}
