// Command experiments regenerates the tables and figures of the
// paper's evaluation (§V). Each experiment prints its result as a text
// table or ASCII plot; -csv writes the raw series alongside.
//
// Usage:
//
//	experiments -exp table1 -missions 100
//	experiments -exp table3 -missions 50
//	experiments -exp all -missions 20 -checkpoint out/ckpt -timeout 2m
//
// The -missions flag trades fidelity for runtime; the paper uses 100
// missions per configuration. Long campaigns are fault-isolated:
// -timeout bounds each mission's fuzzing, failed missions degrade into
// errored outcomes instead of aborting, and -checkpoint persists each
// finished grid cell so an interrupted run resumes where it left off.
// The first ^C cancels the campaign gracefully (checkpointed cells are
// kept); a second ^C kills the process.
//
// Observability: -trace writes a JSONL span trace (campaign → mission
// → pipeline stages), -metrics a JSON snapshot of the campaign
// counters, -pprof serves net/http/pprof plus live /metrics, and
// -progress logs a periodic one-line summary (missions/s, cracked,
// retries, ETA) to stderr. -flightlog DIR archives a step-level flight
// log for every cracked or degraded mission (only those, to bound
// disk), and -postmortem renders a self-contained HTML post-mortem
// next to each. Tables and figures go to stdout; logs go to stderr.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"swarmfuzz/internal/atlas"
	"swarmfuzz/internal/experiments"
	"swarmfuzz/internal/telemetry"
)

func main() {
	log := telemetry.NewLogger(os.Stderr, telemetry.LevelInfo)
	ctx, stop := withInterrupt(context.Background(), log)
	defer stop()
	if err := run(ctx, os.Args[1:], log); err != nil {
		if errors.Is(err, context.Canceled) {
			log.Errorf("experiments: interrupted (checkpointed cells kept)")
			os.Exit(130)
		}
		log.Errorf("experiments: %s", strings.TrimPrefix(err.Error(), "experiments: "))
		os.Exit(1)
	}
}

// withInterrupt returns a context cancelled by the first SIGINT or
// SIGTERM; a second signal terminates the process immediately.
func withInterrupt(parent context.Context, log *telemetry.Logger) (context.Context, func()) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		log.Warnf("interrupt: finishing gracefully — ^C again to kill")
		cancel()
		<-ch
		os.Exit(130)
	}()
	return ctx, func() { signal.Stop(ch); cancel() }
}

func run(ctx context.Context, args []string, log *telemetry.Logger) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		exp        = fs.String("exp", "all", "experiment: table1|table2|table3|fig5|fig6|fig7|all")
		missions   = fs.Int("missions", 30, "missions per configuration (paper: 100)")
		csvDir     = fs.String("csv", "", "directory to write raw CSV series into (optional)")
		seed       = fs.Uint64("seed", 1, "base mission seed")
		timeout    = fs.Duration("timeout", 0, "per-mission fuzzing deadline (0 = none)")
		checkpoint = fs.String("checkpoint", "", "directory to persist finished grid cells into and resume from")
		retries    = fs.Int("retries", 2, "extra attempts for transiently-failed missions (deadline misses)")
		progress   = fs.Duration("progress", 30*time.Second, "interval between progress summaries (0 = none)")
		workers    = fs.Int("seed-workers", 0, "speculative seed-search workers per mission (0/1 = sequential; results are identical either way)")
		flightDir  = fs.String("flightlog", "", "directory to archive flight logs of cracked/degraded missions into")
		postmortem = fs.Bool("postmortem", false, "render an HTML post-mortem next to each archived flight log")
		atlasFile  = fs.String("atlas", "", "file to write the SwarmFuzz grid's search-atlas artifact into (JSONL)")
		atlasHTML  = fs.String("atlas-html", "", "file to render the atlas as a self-contained XHTML page into (needs -atlas)")
	)
	tf := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
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
	if *progress > 0 {
		stop := telemetry.StartProgress(ctx, log, tel.Rec.Registry(), *progress)
		defer stop()
	}

	cfg := experiments.DefaultConfig(*missions)
	cfg.BaseSeed = *seed
	cfg.Fuzz.SeedWorkers = *workers
	cfg.MissionTimeout = *timeout
	cfg.Checkpoint = *checkpoint
	cfg.Retry.MaxAttempts = 1 + *retries
	cfg.FlightDir = *flightDir
	cfg.Postmortem = *postmortem
	cfg.AtlasPath = *atlasFile
	cfg.Telemetry = tel.Rec
	cfg.Log = log
	if *atlasHTML != "" && *atlasFile == "" {
		return errors.New("-atlas-html needs -atlas")
	}

	runner := experiments.NewRunner(cfg, os.Stdout, *csvDir)
	runExp := func() error {
		switch strings.ToLower(*exp) {
		case "table1":
			return runner.Table1(ctx)
		case "table2":
			return runner.Table2(ctx)
		case "table3":
			return runner.Table3(ctx)
		case "fig5":
			return runner.Fig5(ctx)
		case "fig6":
			return runner.Fig6(ctx)
		case "fig7":
			return runner.Fig7(ctx)
		case "all":
			return runner.All(ctx)
		default:
			return fmt.Errorf("unknown experiment %q", *exp)
		}
	}
	if err := runExp(); err != nil {
		return err
	}
	if *atlasFile != "" {
		// Only the SwarmFuzz grid writes the artifact; an experiment
		// that never runs it (table3, fig5) must fail loudly rather
		// than leave the caller believing an atlas exists.
		if _, serr := os.Stat(*atlasFile); serr != nil {
			return fmt.Errorf("-atlas: the %q experiment does not run the SwarmFuzz grid, so no artifact was written (use table1/table2/fig6/fig7/all)", *exp)
		}
		log.Infof("search atlas written to %s", *atlasFile)
	}
	if *atlasHTML != "" {
		if err := renderAtlasHTML(*atlasFile, *atlasHTML); err != nil {
			return err
		}
		log.Infof("atlas page written to %s", *atlasHTML)
	}
	return nil
}

// renderAtlasHTML renders the recorded artifact as the self-contained
// XHTML atlas page.
func renderAtlasHTML(artifact, out string) error {
	doc, err := atlas.ReadAtlasFile(artifact)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := atlas.RenderXHTML(doc, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
