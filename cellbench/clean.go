package main

import (
	"encoding/json"
	"fmt"
	"os"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/graph"
	"swarmfuzz/internal/metrics"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/svg"
	"swarmfuzz/internal/telemetry"
)

// cleanOutput is what Fig. 3 steps 1–2 produce for one mission: the
// clean run's verdict and VDO and, for a clean-safe mission, the
// target–victim seed schedule the search would walk.
type cleanOutput struct {
	Safe bool    `json:"safe"`
	VDO  float64 `json:"vdo"`
	// Schedule lists the scheduled seeds in order as (target, victim,
	// direction). Their PageRank influence scores are left out: PageRank
	// sums over map-ordered adjacency, so the scores' last bits vary
	// from run to run while the order they produce does not.
	Schedule [][3]int `json:"schedule,omitempty"`
}

// stepLayers samples the traced clean pass's per-step layer times by
// wrapping the controller and the bus sim.Run is given.
type stepLayers struct {
	ctrl     *timedController // wraps the workload's controller once set
	exchange sampler
}

// cleanScan is the clean workload prepared at one base seed: a clean
// run with trajectory recording for each of w.missions consecutive
// mission seeds, then SVG construction and seed scheduling for the
// clean-safe ones, with no search.
type cleanScan struct {
	w    workload
	base uint64
	ctrl *flock.Controller
	want []string // reference digests, one per mission
}

// setupClean maps the workload seed onto a base seed in 1..w.pool and
// loads the reference digests of the missions from there.
func setupClean(w workload, seed int64) (*cleanScan, error) {
	p := int64(w.pool)
	base := 1 + uint64((seed%p+p)%p)
	r, err := loadRefs(w.name)
	if err != nil {
		return nil, err
	}
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		return nil, err
	}
	c := &cleanScan{w: w, base: base, ctrl: ctrl}
	for i := 0; i < w.missions; i++ {
		e, err := r.get(base + uint64(i))
		if err != nil {
			return nil, err
		}
		c.want = append(c.want, e.Digest)
	}
	if err := warmUp(w.swarm, base, true); err != nil {
		return nil, err
	}
	return c, nil
}

// scanMission runs steps 1–2 of Fig. 3 on one mission seed, recording
// into rec. A non-nil layers wraps the controller and the bus of the
// clean run to time them.
func scanMission(ctrl *flock.Controller, swarm int, dist float64, seed uint64, rec telemetry.Recorder, layers *stepLayers) (cleanOutput, error) {
	m, err := sim.NewMission(sim.DefaultMissionConfig(swarm, seed))
	if err != nil {
		return cleanOutput{}, err
	}
	opts := sim.RunOptions{Controller: ctrl, RecordTrajectory: true, Telemetry: rec}
	if layers != nil {
		if layers.ctrl == nil {
			layers.ctrl = &timedController{Controller: ctrl}
		}
		opts.Controller = layers.ctrl
		opts.Bus = timedBus{Bus: comms.NewPerfectBus(), s: &layers.exchange}
	}
	span := rec.StartSpan(0, cleanStage)
	res, err := sim.Run(m, opts)
	span.End()
	if err != nil {
		return cleanOutput{}, err
	}
	out := cleanOutput{Safe: len(res.Collisions) == 0 && res.Completed}
	out.VDO, _ = metrics.VDO(res.MinClearance)
	if !out.Safe {
		return out, nil
	}

	// Seed scheduling exactly as SwarmFuzz configures it by default.
	fopts := fuzz.DefaultOptions()
	cfg := svg.Config{
		SpoofDistance:      dist,
		InfluenceThreshold: fopts.SVGThreshold,
		PageRank:           graph.DefaultPageRankOptions(),
	}
	span = rec.StartSpan(0, svgBuildStage)
	graphs := make(map[gps.Direction]*graph.Digraph, 2)
	snap, err := svg.ClosestSnapshotNearObstacle(res.Trajectory, m, 40)
	for _, dir := range []gps.Direction{gps.Right, gps.Left} {
		if err != nil {
			break
		}
		graphs[dir], err = svg.Build(ctrl, &m.World, m.Axis, snap, dir, cfg)
	}
	span.End()
	if err != nil {
		return cleanOutput{}, err
	}
	span = rec.StartSpan(0, svgSchedStage)
	seeds, err := svg.ScheduleK(graphs, res.MinClearance, cfg.PageRank, fopts.TargetsPerVictim)
	span.End()
	for _, s := range seeds {
		out.Schedule = append(out.Schedule, [3]int{s.Target, s.Victim, int(s.Direction)})
	}
	return out, err
}

func (c *cleanScan) missions() int { return c.w.missions }

// mission runs steps 1–2 of Fig. 3 on the workload's i-th mission seed
// under a root mission span, against which the ledger measures how much
// of the time its stages cover.
func (c *cleanScan) mission(i int, rec telemetry.Recorder, layers *stepLayers) (any, error) {
	span := rec.StartSpan(0, missionSpan)
	defer span.End()
	return scanMission(c.ctrl, c.w.swarm, c.w.dist, c.base+uint64(i), rec, layers)
}

// matches reports whether mission i's output digests to its reference.
func (c *cleanScan) matches(i int, out any) bool {
	d, err := digest(out.(cleanOutput))
	return err == nil && d == c.want[i]
}

// genCleanRefs writes the clean workload's references to stdout: one
// digest per mission seed 1..w.upto.
func genCleanRefs(w workload) error {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	for seed := uint64(1); seed <= w.upto; seed++ {
		o, err := scanMission(ctrl, w.swarm, w.dist, seed, telemetry.Nop, nil)
		if err != nil {
			return fmt.Errorf("seed %d: %w", seed, err)
		}
		e := refEntry{Seed: seed}
		if e.Digest, err = digest(o); err != nil {
			return err
		}
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
