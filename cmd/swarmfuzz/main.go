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
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"swarmfuzz/internal/experiments"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/telemetry"
)

func main() {
	log := telemetry.NewLogger(os.Stderr, telemetry.LevelInfo)
	ctx, stop := telemetry.WithInterrupt(context.Background(), log)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, log); err != nil {
		if errors.Is(err, context.Canceled) {
			log.Errorf("swarmfuzz: interrupted")
			os.Exit(130)
		}
		log.Errorf("swarmfuzz: %v", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer, log *telemetry.Logger) (err error) {
	fs := flag.NewFlagSet("swarmfuzz", flag.ContinueOnError)
	spec := experiments.MissionSpec{Fuzz: fuzz.DefaultOptions()}
	fs.IntVar(&spec.SwarmSize, "n", 5, "swarm size")
	fs.Uint64Var(&spec.Seed, "seed", 1, "mission seed")
	fs.Float64Var(&spec.SpoofDistance, "dist", 10, "GPS spoofing deviation d (m)")
	name := fs.String("fuzzer", "swarmfuzz", "fuzzer: swarmfuzz|r_fuzz|g_fuzz|s_fuzz")
	fs.IntVar(&spec.Fuzz.MaxIterPerSeed, "iters", 20, "max search iterations per seed")
	fs.DurationVar(&spec.Timeout, "timeout", 0, "fuzzing deadline (0 = none)")
	fs.IntVar(&spec.Fuzz.SeedWorkers, "seed-workers", 0, "speculative seed-search workers (0/1 = sequential; report is identical either way)")
	fs.StringVar(&spec.FlightDir, "flightlog", "", "directory to write the mission's flight log into")
	fs.BoolVar(&spec.Postmortem, "postmortem", false, "render an HTML post-mortem next to the flight log (needs -flightlog)")
	atlasFile := fs.String("atlas", "", "file to write the search-atlas artifact into (per-seed convergence trails, JSONL)")
	tf := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if spec.Postmortem && spec.FlightDir == "" {
		return errors.New("-postmortem needs -flightlog")
	}
	spec.Atlas = *atlasFile != ""

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
	span := tel.Rec.StartSpan(0, "mission",
		telemetry.KV("fuzzer", fuzzer.Name()),
		telemetry.KV("seed", spec.Seed),
		telemetry.KV("swarm_size", spec.SwarmSize))
	spec.Fuzz.Telemetry, spec.Fuzz.TraceParent = tel.Rec, span.ID()
	log.Debugf("fuzzing mission seed %d (%d drones, d=%gm) with %s", spec.Seed, spec.SwarmSize, spec.SpoofDistance, fuzzer.Name())
	res, err := experiments.RunMission(ctx, spec, fuzzer)
	span.End(telemetry.KV("found", res.Report != nil && res.Report.Found))
	defer func() {
		if aerr := saveArtifacts(log, res, *atlasFile); err == nil {
			err = aerr
		}
	}()
	if errors.Is(err, fuzz.ErrUnsafeMission) {
		fmt.Fprintln(stdout, "mission fails its initial no-attack test; pick another seed")
		return nil
	}
	if errors.Is(err, robust.ErrDeadline) {
		return fmt.Errorf("no verdict within %v; raise -timeout or lower -iters", spec.Timeout)
	}
	if err != nil {
		return err
	}

	rep := res.Report
	fmt.Fprintf(stdout, "%s on %d drones, seed %d, d=%.0fm\n", rep.Fuzzer, spec.SwarmSize, spec.Seed, spec.SpoofDistance)
	fmt.Fprintf(stdout, "clean run: duration %.1fs, VDO %.2fm\n", rep.Clean.Duration, rep.VDO)
	fmt.Fprintf(stdout, "seeds tried: %d, search iterations: %d, simulations: %d\n",
		rep.SeedsTried, rep.IterationsToFind, rep.SimRuns)
	if !rep.Found {
		fmt.Fprintln(stdout, "no SPV found: the mission is resilient under this budget")
		return nil
	}
	for _, f := range rep.Findings {
		fmt.Fprintf(stdout, "FOUND %s\n", f)
	}
	return nil
}

// saveArtifacts writes the atlas file and logs where the artifacts
// went. It returns the first requested artifact that could not be made;
// a post-mortem that could not be rendered is only a warning.
func saveArtifacts(log *telemetry.Logger, res experiments.MissionResult, atlasFile string) error {
	err := res.AtlasErr
	if res.Atlas != nil {
		if err = os.WriteFile(atlasFile, res.Atlas, 0o644); err == nil {
			log.Infof("search atlas written to %s", atlasFile)
		}
	}
	if res.FlightPath == "" || res.FlightErr != nil {
		return cmp.Or(err, res.FlightErr)
	}
	log.Infof("flight log written to %s", res.FlightPath)
	if res.PostmortemErr != nil {
		log.Warnf("post-mortem: %v", res.PostmortemErr)
	} else if res.PostmortemPath != "" {
		log.Infof("post-mortem written to %s", res.PostmortemPath)
	}
	return err
}
