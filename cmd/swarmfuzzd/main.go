// Command swarmfuzzd is the fuzzing-as-a-service daemon: it accepts
// SwarmFuzz jobs (single-mission fuzz runs, campaign cells, full
// experiment grids) over HTTP, runs them on a bounded worker pool and
// persists specs, statuses and reports to a disk-backed store that
// survives restarts. The same binary doubles as the client.
//
// Usage:
//
//	swarmfuzzd serve      -addr 127.0.0.1:7077 -store ./swarmfuzzd-data -workers 4
//	swarmfuzzd coordinate -addr 127.0.0.1:7077 -store ./swarmfuzzd-data -lease-ttl 15s
//	swarmfuzzd work       -coordinator http://127.0.0.1:7077 -id worker-a
//	swarmfuzzd submit -addr 127.0.0.1:7077 -kind fuzz -n 5 -seed 3 -dist 10 -wait
//	swarmfuzzd submit -addr 127.0.0.1:7077 -kind campaign -n 5 -dist 10 -missions 50
//	swarmfuzzd status -addr 127.0.0.1:7077 [job-id]
//	swarmfuzzd wait   -addr 127.0.0.1:7077 job-id
//	swarmfuzzd cancel -addr 127.0.0.1:7077 job-id
//	swarmfuzzd stats  -addr 127.0.0.1:7077 [job-id]
//	swarmfuzzd trace  -addr 127.0.0.1:7077 job-id
//	swarmfuzzd atlas  -addr 127.0.0.1:7077 job-id [-summary | -html page.xhtml]
//	swarmfuzzd top    -addr 127.0.0.1:7077 -interval 2s
//
// The daemon serves the job API, /healthz, /readyz and the shared
// telemetry endpoints (/metrics, /metrics.json, /debug/pprof/) on one
// listener. The first SIGINT/SIGTERM drains gracefully: intake stops
// (readyz turns 503), in-flight jobs get -drain to finish, stragglers
// are cancelled back into the queue, and everything still queued
// resumes when the daemon restarts on the same store. A second signal
// kills the process.
//
// `coordinate` is `serve` plus the distributed campaign fabric: grid
// jobs shard cell-by-cell across `work` daemons over a lease protocol
// (POST /fabric/v1/lease|heartbeat|complete|fail), and a
// content-addressed result cache under the store serves repeat
// submissions — from any client — without re-simulating.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"swarmfuzz/internal/chaos"
	"swarmfuzz/internal/fabric"
	"swarmfuzz/internal/serve"
	"swarmfuzz/internal/serve/client"
	"swarmfuzz/internal/telemetry"
)

func main() {
	log := telemetry.NewLogger(os.Stderr, telemetry.LevelInfo)
	ctx, stop := telemetry.WithInterrupt(context.Background(), log)
	defer stop()

	args := os.Args[1:]
	cmd := "serve"
	if len(args) > 0 && args[0] != "" && args[0][0] != '-' {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "serve":
		err = runServe(ctx, args, log, false)
	case "coordinate":
		err = runServe(ctx, args, log, true)
	case "work":
		err = runWork(ctx, args, log)
	case "submit":
		err = runSubmit(ctx, args, log)
	case "status":
		err = runStatus(ctx, args)
	case "wait":
		err = runWait(ctx, args)
	case "cancel":
		err = runCancel(ctx, args)
	case "stats":
		err = runStats(ctx, args)
	case "trace":
		err = runTrace(ctx, args)
	case "atlas":
		err = runAtlas(ctx, args)
	case "top":
		err = runTop(ctx, args)
	case "help", "-h", "--help":
		fmt.Println("usage: swarmfuzzd serve|coordinate|work|submit|status|wait|cancel|stats|trace|atlas|top [flags]")
		return
	default:
		err = fmt.Errorf("unknown subcommand %q (want serve|coordinate|work|submit|status|wait|cancel|stats|trace|atlas|top)", cmd)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) {
			log.Errorf("swarmfuzzd: interrupted")
			os.Exit(130)
		}
		log.Errorf("swarmfuzzd: %v", err)
		os.Exit(1)
	}
}

// runServe is the daemon proper. With coordinate set it also mounts
// the fabric coordinator (grid cells shard across `swarmfuzzd work`
// daemons) and defaults the result cache on under the store.
func runServe(ctx context.Context, args []string, log *telemetry.Logger, coordinate bool) (err error) {
	name := "serve"
	if coordinate {
		name = "coordinate"
	}
	fs := flag.NewFlagSet("swarmfuzzd "+name, flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:7077", "listen address (use :0 for an ephemeral port)")
		addrFile = fs.String("addr-file", "", "write the bound address to this `file` once listening")
		store    = fs.String("store", "./swarmfuzzd-data", "job store directory")
		workers  = fs.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
		backlog  = fs.Int("backlog", 64, "max queued jobs before submits get 429")
		drain    = fs.Duration("drain", 30*time.Second, "grace given to in-flight jobs on shutdown before they are cancelled back into the queue")
		stall    = fs.Duration("job-stall-timeout", 0, "kill a job attempt after this long without telemetry heartbeats (0 = no watchdog)")
		ttl      = fs.Duration("job-ttl", 0, "garbage-collect finished jobs this long after completion (0 = keep forever)")
		gcEvery  = fs.Duration("gc-interval", time.Minute, "TTL sweep period")
		chaosCfg = fs.String("chaos", "", "chaos spec `file`: inject the fault schedule into store IO and job stall points (testing only)")
	)
	cacheHelp := "content-addressed result cache `dir` (empty = disabled)"
	if coordinate {
		cacheHelp = "content-addressed result cache `dir` (empty = <store>/cache, \"off\" = disabled)"
	}
	var (
		cacheDir      = fs.String("cache-dir", "", cacheHelp)
		leaseTTL      = fs.Duration("lease-ttl", 15*time.Second, "fabric lease lifetime between worker heartbeats (coordinate only)")
		leaseAttempts = fs.Int("lease-attempts", 3, "lease grants per grid cell before the job fails transient (coordinate only)")
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

	var injector *chaos.Injector
	if *chaosCfg != "" {
		spec, err := chaos.LoadSpec(*chaosCfg)
		if err != nil {
			return err
		}
		injector = chaos.New(spec, tel.Rec, log)
		log.Warnf("chaos harness armed: %d fault rule(s) from %s (seed %d)", len(spec.Faults), *chaosCfg, spec.Seed)
	}
	var coord *fabric.Coordinator
	if coordinate {
		coord = fabric.NewCoordinator(fabric.Options{
			LeaseTTL:    *leaseTTL,
			MaxAttempts: *leaseAttempts,
			Telemetry:   tel.Rec,
			Log:         log,
		})
	}
	var cache *fabric.Cache
	dir := *cacheDir
	if coordinate && dir == "" {
		dir = filepath.Join(*store, "cache")
	}
	if dir != "" && dir != "off" {
		if cache, err = fabric.OpenCache(dir, log); err != nil {
			return err
		}
		log.Infof("result cache at %s", dir)
	}
	engine, err := serve.NewEngine(serve.Options{
		Store:        *store,
		Workers:      *workers,
		Backlog:      *backlog,
		StallTimeout: *stall,
		JobTTL:       *ttl,
		GCInterval:   *gcEvery,
		Chaos:        injector,
		Fabric:       coord,
		Cache:        cache,
		Telemetry:    tel.Rec,
		Log:          log,
	})
	if err != nil {
		return err
	}
	handler := serve.NewServer(engine, tel.Rec.Registry())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	log.Infof("swarmfuzzd listening on http://%s (store %s)", bound, *store)
	if coordinate {
		log.Infof("fabric coordinator up: lease ttl %v, %d attempts/cell — attach workers with `swarmfuzzd work -coordinator http://%s`",
			*leaseTTL, *leaseAttempts, bound)
	}

	// The engine runs under the background context: interrupt-driven
	// shutdown goes through Drain so in-flight jobs keep their grace
	// period instead of being cancelled outright.
	engine.Start(context.Background())
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	log.Infof("draining: intake closed, giving in-flight jobs %v", *drain)
	engine.Drain(*drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(shutdownCtx)
	log.Infof("swarmfuzzd stopped; queued jobs resume on next start")
	return nil
}

// runWork is the fabric worker daemon: it polls a coordinator for
// leased grid cells, computes each through the same campaign pipeline
// a single-node daemon runs, and streams results back. Losing a lease
// (missed heartbeats, coordinator restart) abandons the cell silently —
// the coordinator has already re-assigned it.
func runWork(ctx context.Context, args []string, log *telemetry.Logger) (err error) {
	fs := flag.NewFlagSet("swarmfuzzd work", flag.ContinueOnError)
	var (
		coordinator = fs.String("coordinator", "", "coordinator base `url` (required), e.g. http://127.0.0.1:7077")
		id          = fs.String("id", "", "worker id reported to the coordinator (default host-pid)")
		poll        = fs.Duration("poll", 500*time.Millisecond, "idle delay between lease requests")
	)
	tf := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator == "" {
		return errors.New("work: -coordinator is required")
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
	w, err := fabric.NewWorker(fabric.WorkerOptions{
		Coordinator: *coordinator,
		ID:          *id,
		Poll:        *poll,
		Run: serve.CellRunner(serve.CellRunnerOptions{
			Telemetry: tel.Rec,
			Log:       log,
		}),
		Telemetry: tel.Rec,
		Log:       log,
	})
	if err != nil {
		return err
	}
	log.Infof("fabric worker %s polling %s", w.ID(), *coordinator)
	if err := w.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
		return err
	}
	log.Infof("fabric worker %s stopped", w.ID())
	return nil
}

// runSubmit builds a JobSpec from flags and submits it.
func runSubmit(ctx context.Context, args []string, log *telemetry.Logger) error {
	fs := flag.NewFlagSet("swarmfuzzd submit", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "127.0.0.1:7077", "daemon address")
		kind    = fs.String("kind", "fuzz", "job kind: fuzz|campaign|grid")
		fuzzer  = fs.String("fuzzer", "swarmfuzz", "fuzzer: swarmfuzz|r_fuzz|g_fuzz|s_fuzz")
		n       = fs.Int("n", 5, "swarm size (fuzz/campaign)")
		seed    = fs.Uint64("seed", 1, "mission seed (fuzz)")
		dist    = fs.Float64("dist", 10, "GPS spoofing deviation d in metres (fuzz/campaign)")
		miss    = fs.Int("missions", 30, "missions per cell (campaign/grid)")
		base    = fs.Uint64("base-seed", 1, "base mission seed (campaign/grid)")
		sizes   = fs.String("sizes", "", "comma-separated swarm sizes for a grid job (empty = server default grid)")
		dists   = fs.String("dists", "", "comma-separated spoof distances for a grid job (empty = server default grid)")
		iters   = fs.Int("iters", 0, "max search iterations per seed (0 = default)")
		maxs    = fs.Int("max-seeds", 0, "max seeds per mission (0 = all)")
		sworker = fs.Int("seed-workers", 0, "speculative seed-search workers")
		workers = fs.Int("workers", 0, "campaign mission parallelism (0 = GOMAXPROCS)")
		timeout = fs.Duration("timeout", 0, "per-mission fuzzing deadline (0 = none)")
		retries = fs.Int("retries", 0, "extra attempts for transiently-failed missions (0 = default policy)")
		flight  = fs.Bool("flightlog", false, "archive flight logs under the job's store directory")
		postmor = fs.Bool("postmortem", false, "render HTML post-mortems next to the flight logs")
		atlas   = fs.Bool("atlas", false, "record the search atlas (served by the atlas subcommand once done)")
		wait    = fs.Bool("wait", false, "stream progress and wait for the job to settle")
		report  = fs.Bool("report", false, "with -wait: print the finished job's report.json to stdout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec := serve.JobSpec{
		Kind:              *kind,
		Fuzzer:            *fuzzer,
		SwarmSize:         *n,
		Seed:              *seed,
		SpoofDistance:     *dist,
		Missions:          *miss,
		BaseSeed:          *base,
		MaxIterPerSeed:    *iters,
		MaxSeeds:          *maxs,
		SeedWorkers:       *sworker,
		Workers:           *workers,
		MissionTimeoutSec: timeout.Seconds(),
		Retries:           *retries,
		Flightlog:         *flight,
		Postmortem:        *postmor,
		Atlas:             *atlas,
	}
	if spec.Kind == serve.KindGrid {
		spec.SwarmSize, spec.SpoofDistance = 0, 0
		var err error
		if spec.SwarmSizes, err = parseInts(*sizes); err != nil {
			return fmt.Errorf("-sizes: %w", err)
		}
		if spec.SpoofDistances, err = parseFloats(*dists); err != nil {
			return fmt.Errorf("-dists: %w", err)
		}
	}
	c := client.New(*addr)
	st, err := c.Submit(ctx, spec)
	if err != nil {
		return err
	}
	log.Infof("submitted %s (%s/%s)", st.ID, st.Kind, st.Fuzzer)
	if !*wait {
		fmt.Println(st.ID)
		return nil
	}
	final, err := waitAndLog(ctx, c, st.ID, log)
	if err != nil {
		return err
	}
	if *report && final.State == serve.StateDone {
		data, err := c.Report(ctx, st.ID)
		if err != nil {
			return err
		}
		_, _ = os.Stdout.Write(data)
		return nil
	}
	return printStatus(final)
}

// parseInts parses a comma-separated integer list; "" means nil.
func parseInts(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// parseFloats parses a comma-separated float list; "" means nil.
func parseFloats(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", part)
		}
		out = append(out, f)
	}
	return out, nil
}

// waitAndLog follows the job's events, logging progress to stderr, and
// returns the final status.
func waitAndLog(ctx context.Context, c *client.Client, id string, log *telemetry.Logger) (serve.JobStatus, error) {
	_ = c.Events(ctx, id, func(e serve.Event) error {
		switch e.Type {
		case "state":
			log.Infof("job %s: %s", id, e.State)
		case "progress":
			log.Debugf("job %s: progress %v", id, e.Counters)
		}
		return nil
	})
	if ctx.Err() != nil {
		return serve.JobStatus{}, ctx.Err()
	}
	return c.Wait(ctx, id)
}

// printStatus renders a status as JSON on stdout and sets the exit
// code via error for non-done terminal states.
func printStatus(st serve.JobStatus) error {
	data, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	switch st.State {
	case serve.StateFailed:
		return fmt.Errorf("job %s failed: %s", st.ID, st.Error)
	case serve.StateCancelled:
		return fmt.Errorf("job %s was cancelled", st.ID)
	}
	return nil
}

func runStatus(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("swarmfuzzd status", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7077", "daemon address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c := client.New(*addr)
	if id := fs.Arg(0); id != "" {
		st, err := c.Get(ctx, id)
		if err != nil {
			return err
		}
		data, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(data))
		return nil
	}
	jobs, err := c.List(ctx)
	if err != nil {
		return err
	}
	for _, st := range jobs {
		line := fmt.Sprintf("%s  %-9s %s/%s", st.ID, st.State, st.Kind, st.Fuzzer)
		if st.Error != "" {
			line += "  " + st.Error
		}
		fmt.Println(line)
	}
	return nil
}

func runWait(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("swarmfuzzd wait", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7077", "daemon address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id := fs.Arg(0)
	if id == "" {
		return errors.New("wait: need a job id")
	}
	st, err := client.New(*addr).Wait(ctx, id)
	if err != nil {
		return err
	}
	return printStatus(st)
}

func runCancel(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("swarmfuzzd cancel", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7077", "daemon address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id := fs.Arg(0)
	if id == "" {
		return errors.New("cancel: need a job id")
	}
	st, err := client.New(*addr).Cancel(ctx, id)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %s\n", st.ID, st.State)
	return nil
}
