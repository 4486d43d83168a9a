package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"swarmfuzz/internal/experiments"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/telemetry"
)

// genMaxSeeds caps the seed walk while generating the references of a
// workload that draws only cracked missions. The walk stops at the
// first crack, so a mission that cracks within the cap gets exactly
// the outcome of an uncapped walk; one that does not is left out of
// the pool, and the cap keeps generation from spending a full search
// (30–50 s at 15 drones) on it.
const genMaxSeeds = 8

// tableCell is a Table I workload prepared for one workload seed:
// SwarmFuzz over clean-safe missions drawn from the reference pool, as
// cmd/experiments runs a cell by default (one mission at a time,
// sequential seed walk, sequential scan, no flight log or atlas). Each
// mission is a one-mission campaign based at its own seed, so its scan
// costs the one clean run that admits it.
type tableCell struct {
	w     workload
	seeds []uint64 // mission seeds, ascending
	want  [][]byte // EncodeCell bytes of each mission's reference cell
}

// campaignConfig is the campaign configuration of every table run.
func campaignConfig(missions int, base uint64, rec telemetry.Recorder) experiments.Config {
	cfg := experiments.DefaultConfig(missions)
	cfg.BaseSeed = base
	cfg.Workers = 1
	cfg.Fuzz.SeedWorkers = 1
	cfg.Telemetry = rec
	return cfg
}

// drawTolerance bounds how far a draw's total reference sims and steps
// may each lie from the expected totals of its strata.
const drawTolerance = 0.02

// drawMissions picks the workload's missions for a workload seed:
// w.crack from the pool's cracked missions and w.exhaust from the rest.
// Draws whose total reference sims or steps lie more than drawTolerance
// from the strata's expected totals are redrawn, so every seed's draw
// has the same verdict mix and nearly the same cost.
func drawMissions(w workload, r refs, seed int64) ([]uint64, error) {
	type stratum struct {
		pool []refEntry
		n    int
	}
	var strata []stratum
	var wantSims, wantSteps float64
	for _, st := range []struct {
		found bool
		n     int
	}{{true, w.crack}, {false, w.exhaust}} {
		var pool []refEntry
		var sims, steps int64
		for _, e := range r {
			if e.Found == st.found {
				pool = append(pool, e)
				sims += e.Sims
				steps += e.Steps
			}
		}
		if len(pool) < st.n {
			return nil, fmt.Errorf("%s: %d reference missions with found=%v, need %d", w.name, len(pool), st.found, st.n)
		}
		if st.n == 0 {
			continue
		}
		sort.Slice(pool, func(i, j int) bool { return pool[i].Seed < pool[j].Seed })
		strata = append(strata, stratum{pool, st.n})
		wantSims += float64(sims) / float64(len(pool)) * float64(st.n)
		wantSteps += float64(steps) / float64(len(pool)) * float64(st.n)
	}
	near := func(got int64, want float64) bool { return math.Abs(float64(got)-want) <= drawTolerance*want }
	rnd := rand.New(rand.NewSource(seed))
	for attempt := 0; attempt < 10000; attempt++ {
		var picked []uint64
		var sims, steps int64
		for _, st := range strata {
			for _, i := range rnd.Perm(len(st.pool))[:st.n] {
				picked = append(picked, st.pool[i].Seed)
				sims += st.pool[i].Sims
				steps += st.pool[i].Steps
			}
		}
		if near(sims, wantSims) && near(steps, wantSteps) {
			sort.Slice(picked, func(i, j int) bool { return picked[i] < picked[j] })
			return picked, nil
		}
	}
	return nil, fmt.Errorf("%s: no draw within %.0f%% of %.0f reference sims and %.0f steps",
		w.name, 100*drawTolerance, wantSims, wantSteps)
}

// setupTable draws the missions, builds each one's reference cell and
// warms the simulator with the first mission's clean run.
func setupTable(w workload, seed int64) (*tableCell, error) {
	r, err := loadRefs(w.name)
	if err != nil {
		return nil, err
	}
	c := &tableCell{w: w}
	if c.seeds, err = drawMissions(w, r, seed); err != nil {
		return nil, err
	}
	for _, s := range c.seeds {
		var o experiments.MissionOutcome
		if err := json.Unmarshal(r[s].Outcome, &o); err != nil {
			return nil, fmt.Errorf("reference for seed %d: %w", s, err)
		}
		want, err := experiments.EncodeCell(&experiments.CampaignResult{
			SwarmSize: w.swarm, SpoofDistance: w.dist, Outcomes: []experiments.MissionOutcome{o},
		})
		if err != nil {
			return nil, err
		}
		c.want = append(c.want, want)
	}
	if err := warmUp(w.swarm, c.seeds[0], false); err != nil {
		return nil, err
	}
	return c, nil
}

// warmUp runs one clean mission, so the first timed pass finds the
// heap and caches as later passes do.
func warmUp(swarm int, seed uint64, trajectory bool) error {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		return err
	}
	m, err := sim.NewMission(sim.DefaultMissionConfig(swarm, seed))
	if err != nil {
		return err
	}
	_, err = sim.Run(m, sim.RunOptions{Controller: ctrl, RecordTrajectory: trajectory})
	return err
}

func (c *tableCell) missions() int { return len(c.seeds) }

// mission fuzzes drawn mission i through experiments.RunCampaign. The
// campaigns build their own controller, so layers is unused.
func (c *tableCell) mission(i int, rec telemetry.Recorder, _ *stepLayers) (any, error) {
	return experiments.RunCampaign(context.Background(), campaignConfig(1, c.seeds[i], rec), fuzz.SwarmFuzz{}, c.w.swarm, c.w.dist)
}

// matches reports whether mission i's cell encodes exactly as its
// reference cell.
func (c *tableCell) matches(i int, out any) bool {
	got, err := experiments.EncodeCell(out.(*experiments.CampaignResult))
	return err == nil && bytes.Equal(got, c.want[i])
}

// genTableRefs writes the reference pool of a table workload to stdout:
// every clean-safe mission among seeds 1..upto that the workload can
// draw, and each fuzzed mission's cost to stderr. Each mission is fuzzed
// by a one-mission campaign, exactly as the benchmark runs it.
func genTableRefs(w workload, upto uint64) error {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		return err
	}
	enc := json.NewEncoder(os.Stdout)
	for seed := uint64(1); seed <= upto; seed++ {
		m, err := sim.NewMission(sim.DefaultMissionConfig(w.swarm, seed))
		if err != nil {
			return err
		}
		clean, err := sim.Run(m, sim.RunOptions{Controller: ctrl})
		if err != nil {
			return err
		}
		if len(clean.Collisions) > 0 || !clean.Completed {
			continue // the campaign scan skips unsafe seeds
		}
		var cnt counter
		cfg := campaignConfig(1, seed, &cnt)
		if w.exhaust == 0 {
			cfg.Fuzz.MaxSeeds = genMaxSeeds
		}
		t0 := time.Now()
		cell, err := experiments.RunCampaign(context.Background(), cfg, fuzz.SwarmFuzz{}, w.swarm, w.dist)
		if err != nil {
			return err
		}
		o := cell.Outcomes[0]
		if o.Seed != seed || o.Err != "" {
			return fmt.Errorf("seed %d: reference run fuzzed seed %d (err %q)", seed, o.Seed, o.Err)
		}
		fmt.Fprintf(os.Stderr, "seed %d: sims %d steps %d found %v iters %d %.2fs\n",
			seed, cnt.sims, cnt.steps, o.Found, o.Iterations, time.Since(t0).Seconds())
		if !o.Found && w.exhaust == 0 {
			continue // uncracked within the capped walk: not in the pool
		}
		e := refEntry{Seed: seed, Found: o.Found, Sims: cnt.sims, Steps: cnt.steps}
		if e.Outcome, err = json.Marshal(o); err != nil {
			return err
		}
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}
