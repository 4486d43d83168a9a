// Command swarmsim runs a single swarm mission — optionally under a GPS
// spoofing attack — and prints a summary: completion, duration,
// per-drone minimum obstacle clearance (VDO per drone) and any
// collisions. It is the quickest way to inspect what the simulator and
// the flocking controller do for a given seed.
//
// Usage:
//
//	swarmsim -n 5 -seed 42
//	swarmsim -n 5 -seed 42 -target 2 -start 50 -dur 12 -dir right -dist 10
//	swarmsim -n 5 -seed 42 -traj traj.csv
//	swarmsim -n 5 -seed 42 -target 2 -start 50 -dur 12 -flightlog out -postmortem
//
// -flightlog DIR records the run's step-level flight log (a JSONL
// "black box" with per-drone true vs GPS positions and the flocking
// term decomposition); -postmortem renders it as a self-contained
// HTML file. Results go to stdout; progress goes to stderr.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"swarmfuzz/internal/flightlog"
	flreport "swarmfuzz/internal/flightlog/report"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/report"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/telemetry"
)

func main() {
	log := telemetry.NewLogger(os.Stderr, telemetry.LevelInfo)
	if err := run(os.Args[1:], log); err != nil {
		log.Errorf("swarmsim: %v", err)
		os.Exit(1)
	}
}

func run(args []string, log *telemetry.Logger) error {
	fs := flag.NewFlagSet("swarmsim", flag.ContinueOnError)
	var (
		n       = fs.Int("n", 5, "swarm size")
		seed    = fs.Uint64("seed", 1, "mission seed")
		target  = fs.Int("target", -1, "spoof target drone (-1 disables the attack)")
		start   = fs.Float64("start", 0, "spoofing start time t_s (s)")
		dur     = fs.Float64("dur", 0, "spoofing duration Δt (s)")
		dirStr  = fs.String("dir", "right", "spoofing direction: right|left")
		dist    = fs.Float64("dist", 10, "spoofing distance d (m)")
		trajCSV = fs.String("traj", "", "write the trajectory to this CSV file")
		flight  = fs.String("flightlog", "", "directory to write the run's flight log into")
		postmor = fs.Bool("postmortem", false, "render an HTML post-mortem next to the flight log (needs -flightlog)")
		quiet   = fs.Bool("quiet", false, "log only errors")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *postmor && *flight == "" {
		return errors.New("-postmortem needs -flightlog")
	}
	if *quiet {
		log.SetLevel(telemetry.LevelError)
	}

	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		return err
	}
	mission, err := sim.NewMission(sim.DefaultMissionConfig(*n, *seed))
	if err != nil {
		return err
	}

	opts := sim.RunOptions{Controller: ctrl, RecordTrajectory: true}
	if *target >= 0 {
		dir := gps.Right
		if strings.EqualFold(*dirStr, "left") {
			dir = gps.Left
		}
		opts.Spoof = &gps.SpoofPlan{
			Target: *target, Start: *start, Duration: *dur,
			Direction: dir, Distance: *dist,
		}
		log.Infof("attack: %s", opts.Spoof)
	}

	var (
		flog       *flightlog.MissionLog
		flightPath string
	)
	if *flight != "" {
		flog, flightPath, err = flightlog.Create(*flight, fmt.Sprintf("n%d_seed%d", *n, *seed), ctrl)
		if err != nil {
			return err
		}
		opts.Flight = flog.Recorder("mission")
	}

	res, err := sim.Run(mission, opts)
	if flog != nil {
		if cerr := flog.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if flog != nil {
		log.Infof("flight log written to %s", flightPath)
		if *postmor {
			html := flightlog.PostmortemPath(flightPath)
			if err := flreport.GenerateFile(flightPath, html); err != nil {
				return err
			}
			log.Infof("post-mortem written to %s", html)
		}
	}

	ob := mission.Obstacle()
	fmt.Printf("mission: %d drones, seed %d, obstacle at (%.1f, %.1f) r=%.1f\n",
		*n, *seed, ob.Center.X, ob.Center.Y, ob.Radius)
	fmt.Printf("completed=%v duration=%.1fs\n", res.Completed, res.Duration)
	for i, c := range res.MinClearance {
		fmt.Printf("  drone %2d: min obstacle clearance %7.2f m\n", i, c)
	}
	for _, c := range res.Collisions {
		fmt.Printf("  COLLISION: drone %d with %s %d at t=%.1fs pos=%s\n",
			c.Drone, c.Kind, c.Other, c.Time, c.Pos)
	}

	if *trajCSV != "" {
		f, err := os.Create(*trajCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := report.WriteTrajectoryCSV(f, res.Trajectory); err != nil {
			return err
		}
		log.Infof("trajectory written to %s", *trajCSV)
	}
	return nil
}
