// Command swarmfuzz runs the SwarmFuzz fuzzer (or one of its ablation
// variants) against one mission and prints the SPVs it finds.
//
// Usage:
//
//	swarmfuzz -n 5 -seed 3 -dist 10
//	swarmfuzz -n 10 -seed 7 -dist 5 -fuzzer r_fuzz -timeout 1m
//	swarmfuzz -n 5 -seed 3 -trace trace.jsonl -metrics metrics.json
//
// The run is fault-isolated: -timeout bounds the fuzzing wall-clock,
// a panicking fuzzer is reported as an error instead of crashing, and
// ^C cancels gracefully (a second ^C kills). Observability: -trace
// writes a JSONL span trace of the pipeline stages, -metrics a JSON
// snapshot of the run's counters and histograms, -pprof serves
// net/http/pprof plus live /metrics, and -v/-quiet tune the stderr
// log level. -flightlog DIR records the mission's step-level flight
// log (clean run, SVG edges, seed schedule, search trail, and a
// witness run of each finding); -postmortem renders it as a
// self-contained HTML file; -atlas FILE records the search-atlas
// artifact (per-seed convergence trails and classifications, JSONL).
// Results go to stdout; logs go to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"

	"swarmfuzz/internal/atlas"
	"swarmfuzz/internal/flightlog"
	flreport "swarmfuzz/internal/flightlog/report"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/telemetry"
)

func main() {
	log := telemetry.NewLogger(os.Stderr, telemetry.LevelInfo)
	ctx, stop := telemetry.WithInterrupt(context.Background(), log)
	defer stop()
	if err := run(ctx, os.Args[1:], log); err != nil {
		if errors.Is(err, context.Canceled) {
			log.Errorf("swarmfuzz: interrupted")
			os.Exit(130)
		}
		log.Errorf("swarmfuzz: %v", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, log *telemetry.Logger) (err error) {
	fs := flag.NewFlagSet("swarmfuzz", flag.ContinueOnError)
	var (
		n         = fs.Int("n", 5, "swarm size")
		seed      = fs.Uint64("seed", 1, "mission seed")
		dist      = fs.Float64("dist", 10, "GPS spoofing deviation d (m)")
		name      = fs.String("fuzzer", "swarmfuzz", "fuzzer: swarmfuzz|r_fuzz|g_fuzz|s_fuzz")
		maxIter   = fs.Int("iters", 20, "max search iterations per seed")
		timeout   = fs.Duration("timeout", 0, "fuzzing deadline (0 = none)")
		workers   = fs.Int("seed-workers", 0, "speculative seed-search workers (0/1 = sequential; report is identical either way)")
		flight    = fs.String("flightlog", "", "directory to write the mission's flight log into")
		postmor   = fs.Bool("postmortem", false, "render an HTML post-mortem next to the flight log (needs -flightlog)")
		atlasFile = fs.String("atlas", "", "file to write the search-atlas artifact into (per-seed convergence trails, JSONL)")
	)
	tf := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *postmor && *flight == "" {
		return errors.New("-postmortem needs -flightlog")
	}

	fuzzer, err := fuzz.ByName(*name)
	if err != nil {
		return err
	}
	tel, err := tf.Start(log)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := tel.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		return err
	}
	mission, err := sim.NewMission(sim.DefaultMissionConfig(*n, *seed))
	if err != nil {
		return err
	}
	opts := fuzz.DefaultOptions()
	opts.MaxIterPerSeed = *maxIter
	opts.SeedWorkers = *workers
	opts.Telemetry = tel.Rec
	if *flight != "" {
		flog, flightPath, aerr := flightlog.Create(*flight, flightlog.MissionName(*n, *dist, *seed), ctrl)
		if aerr != nil {
			return aerr
		}
		opts.Flight = flog
		defer func() {
			if cerr := flog.Close(); cerr != nil {
				if err == nil {
					err = cerr
				}
				return
			}
			log.Infof("flight log written to %s", flightPath)
			if !*postmor {
				return
			}
			html := flightlog.PostmortemPath(flightPath)
			if perr := flreport.GenerateFile(flightPath, html); perr != nil {
				log.Warnf("post-mortem: %v", perr)
				return
			}
			log.Infof("post-mortem written to %s", html)
		}()
	}

	if *atlasFile != "" {
		af, aerr := os.Create(*atlasFile)
		if aerr != nil {
			return aerr
		}
		if aerr := atlas.WriteHeader(af, fuzzer.Name()); aerr != nil {
			af.Close()
			return aerr
		}
		col := atlas.NewCollector(af, tel.Rec)
		opts.Observer = col
		defer func() {
			// Finalize only a healthy run: a deadline-killed attempt may
			// still be streaming into the file, so an errored run leaves
			// the artifact unframed rather than racing it. The framing
			// (0 cells, 1 mission) matches a served fuzz job's bytes.
			if err == nil {
				if cerr := col.Err(); cerr != nil {
					err = cerr
				} else if cerr := atlas.WriteAtlasEnd(af, 0, 1); cerr != nil {
					err = cerr
				} else {
					log.Infof("search atlas written to %s", *atlasFile)
				}
			}
			if cerr := af.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}

	span := tel.Rec.StartSpan(0, "mission",
		telemetry.KV("fuzzer", fuzzer.Name()),
		telemetry.KV("seed", *seed),
		telemetry.KV("swarm_size", *n))
	opts.TraceParent = span.ID()
	log.Debugf("fuzzing mission seed %d (%d drones, d=%gm) with %s", *seed, *n, *dist, fuzzer.Name())
	rep, err := robust.Call(ctx, *timeout, func() (*fuzz.Report, error) {
		return fuzzer.Fuzz(fuzz.Input{
			Mission:       mission,
			Controller:    ctrl,
			SpoofDistance: *dist,
		}, opts)
	})
	span.End(telemetry.KV("found", rep != nil && rep.Found))
	if errors.Is(err, fuzz.ErrUnsafeMission) {
		fmt.Println("mission fails its initial no-attack test; pick another seed")
		return nil
	}
	if errors.Is(err, robust.ErrDeadline) {
		return fmt.Errorf("no verdict within %v; raise -timeout or lower -iters", *timeout)
	}
	if err != nil {
		return err
	}

	fmt.Printf("%s on %d drones, seed %d, d=%.0fm\n", rep.Fuzzer, *n, *seed, *dist)
	fmt.Printf("clean run: duration %.1fs, VDO %.2fm\n", rep.Clean.Duration, rep.VDO)
	fmt.Printf("seeds tried: %d, search iterations: %d, simulations: %d\n",
		rep.SeedsTried, rep.IterationsToFind, rep.SimRuns)
	if !rep.Found {
		fmt.Println("no SPV found: the mission is resilient under this budget")
		return nil
	}
	for _, f := range rep.Findings {
		fmt.Printf("FOUND %s\n", f)
	}
	return nil
}
