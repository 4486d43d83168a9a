// Package swarmfuzz_bench regenerates each table and figure of the
// paper's evaluation as a testing.B benchmark. The benchmarks run
// heavily reduced campaigns (one or two missions per configuration) so
// the whole suite finishes in minutes; use cmd/experiments for
// full-fidelity reproductions. Key scientific outputs are attached as
// custom benchmark metrics (success rate, iterations) so `go test
// -bench` output doubles as a smoke reproduction.
package swarmfuzz_bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"testing"

	"swarmfuzz/internal/atlas"
	"swarmfuzz/internal/experiments"
	"swarmfuzz/internal/flightlog"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/graph"
	"swarmfuzz/internal/metrics"
	"swarmfuzz/internal/opt"
	"swarmfuzz/internal/rng"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/svg"
	"swarmfuzz/internal/telemetry"
)

// benchConfig returns a reduced campaign configuration sized for
// benchmarks.
func benchConfig(missions int) experiments.Config {
	cfg := experiments.DefaultConfig(missions)
	cfg.SwarmSizes = []int{5}
	cfg.SpoofDistances = []float64{5, 10}
	return cfg
}

// BenchmarkTable1SuccessRates regenerates Table I (success rates of
// SwarmFuzz across swarm configurations) on a reduced grid.
func BenchmarkTable1SuccessRates(b *testing.B) {
	cfg := benchConfig(2)
	for i := 0; i < b.N; i++ {
		cells, err := experiments.Grid(context.Background(), cfg, fuzz.SwarmFuzz{})
		if err != nil {
			b.Fatal(err)
		}
		total, found := 0, 0
		for _, c := range cells {
			for _, o := range c.Outcomes {
				total++
				if o.Found {
					found++
				}
			}
		}
		b.ReportMetric(100*float64(found)/float64(total), "success%")
	}
}

// BenchmarkTable2SearchIterations regenerates Table II (average search
// iterations taken by SwarmFuzz to find SPVs).
func BenchmarkTable2SearchIterations(b *testing.B) {
	cfg := benchConfig(2)
	for i := 0; i < b.N; i++ {
		cell, err := experiments.RunCampaign(context.Background(), cfg, fuzz.SwarmFuzz{}, 5, 10)
		if err != nil {
			b.Fatal(err)
		}
		if iters := cell.AvgIterations(); iters == iters { // skip NaN
			b.ReportMetric(iters, "iters")
		}
	}
}

// BenchmarkTable3Ablation regenerates Table III (SwarmFuzz vs R_Fuzz,
// G_Fuzz, S_Fuzz on 5 drones / 10 m).
func BenchmarkTable3Ablation(b *testing.B) {
	cfg := benchConfig(1)
	fuzzers := []fuzz.Fuzzer{fuzz.SwarmFuzz{}, fuzz.RFuzz{}, fuzz.GFuzz{}, fuzz.SFuzz{}}
	for i := 0; i < b.N; i++ {
		for _, f := range fuzzers {
			if _, err := experiments.RunCampaign(context.Background(), cfg, f, 5, 10); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5Convexity regenerates the Fig. 5(e) objective sweep:
// the victim-obstacle distance as a function of the spoofing duration.
func BenchmarkFig5Convexity(b *testing.B) {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	mission, err := sim.NewMission(sim.DefaultMissionConfig(5, 5))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ys := opt.Sweep1D(func(dt float64) float64 {
			plan := &gps.SpoofPlan{Target: 4, Start: 45, Duration: dt, Direction: gps.Left, Distance: 10}
			res, err := sim.Run(mission, sim.RunOptions{Controller: ctrl, Spoof: plan})
			if err != nil {
				b.Fatal(err)
			}
			return res.MinClearance[3]
		}, 2, 26, 9)
		b.ReportMetric(float64(opt.ConvexityViolations(ys, 0.3)), "convexity-violations")
	}
}

// BenchmarkFig6CumulativeSuccess regenerates Fig. 6(a–c): cumulative
// success rate bucketed by VDO.
func BenchmarkFig6CumulativeSuccess(b *testing.B) {
	cfg := benchConfig(2)
	for i := 0; i < b.N; i++ {
		cell, err := experiments.RunCampaign(context.Background(), cfg, fuzz.SwarmFuzz{}, 5, 10)
		if err != nil {
			b.Fatal(err)
		}
		ths := experiments.SortedVDOThresholds(cell)
		rates := metrics.CumulativeSuccessRate(cell.VDOs(), cell.Successes(), ths)
		if len(rates) != len(ths) {
			b.Fatal("rate/threshold length mismatch")
		}
	}
}

// BenchmarkFig6VDOCDF regenerates Fig. 6(d): the empirical CDF of the
// VDO per swarm size, which only needs clean runs.
func BenchmarkFig6VDOCDF(b *testing.B) {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range []int{5, 10, 15} {
			var vdos []float64
			for seed := uint64(1); seed <= 5; seed++ {
				m, err := sim.NewMission(sim.DefaultMissionConfig(n, seed))
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(m, sim.RunOptions{Controller: ctrl})
				if err != nil {
					b.Fatal(err)
				}
				v, _ := metrics.VDO(res.MinClearance)
				vdos = append(vdos, v)
			}
			cdf := metrics.CDF(vdos, metrics.Linspace(0, 12, 13))
			if cdf[len(cdf)-1] == 0 {
				b.Fatal("degenerate CDF")
			}
		}
	}
}

// BenchmarkFig7SpoofParams regenerates Fig. 7: the distribution of the
// spoofing parameters found by SwarmFuzz.
func BenchmarkFig7SpoofParams(b *testing.B) {
	cfg := benchConfig(2)
	for i := 0; i < b.N; i++ {
		cell, err := experiments.RunCampaign(context.Background(), cfg, fuzz.SwarmFuzz{}, 5, 10)
		if err != nil {
			b.Fatal(err)
		}
		starts, durs := cell.FoundParams()
		if len(starts) > 0 {
			b.ReportMetric(metrics.Mean(starts), "ts_mean_s")
			b.ReportMetric(metrics.Mean(durs), "dt_mean_s")
		}
	}
}

// BenchmarkTelemetryPipeline runs a reduced campaign with the metrics
// registry live and derives the pipeline's throughput from its own
// counters: missions per second of campaign wall time and nanoseconds
// per simulation step (from the sim wall-time histogram). When the
// BENCH_OUT environment variable names a file, the figures are written
// there as JSON so `make bench` leaves a machine-readable record.
func BenchmarkTelemetryPipeline(b *testing.B) {
	cfg := benchConfig(2)
	reg := telemetry.NewRegistry()
	cfg.Telemetry = telemetry.New(reg, nil)
	var missions int64
	start := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell, err := experiments.RunCampaign(context.Background(), cfg, fuzz.SwarmFuzz{}, 5, 10)
		if err != nil {
			b.Fatal(err)
		}
		missions += int64(len(cell.Outcomes))
	}
	b.StopTimer()
	elapsed := time.Since(start).Seconds()
	snap := reg.Snapshot()
	steps := snap.Counters[telemetry.MSimSteps]
	simSeconds := snap.Histograms[telemetry.MSimWallSeconds].Sum
	missionsPerSec := float64(missions) / elapsed
	nsPerStep := 0.0
	if steps > 0 {
		nsPerStep = simSeconds * 1e9 / float64(steps)
	}
	b.ReportMetric(missionsPerSec, "missions/s")
	b.ReportMetric(nsPerStep, "ns/sim-step")

	if out := os.Getenv("BENCH_OUT"); out != "" {
		data, err := json.MarshalIndent(map[string]any{
			"missions":         missions,
			"missions_per_sec": missionsPerSec,
			"ns_per_sim_step":  nsPerStep,
			"sim_runs":         snap.Counters[telemetry.MSimRuns],
			"sim_steps":        steps,
			"sim_wall_seconds": simSeconds,
		}, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecorderOverhead compares a full mission simulation with
// telemetry disabled (the no-op recorder the pipeline defaults to)
// against one recording into a live registry, pinning the cost of the
// instrumentation on the hot path.
func BenchmarkRecorderOverhead(b *testing.B) {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	mission, err := sim.NewMission(sim.DefaultMissionConfig(5, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(mission, sim.RunOptions{Controller: ctrl}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		tel := telemetry.New(telemetry.NewRegistry(), nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(mission, sim.RunOptions{Controller: ctrl, Telemetry: tel}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCampaignBaseline runs a reduced deterministic campaign and,
// when the BENCH_BASELINE environment variable names a file, writes the
// campaign's work counters (missions, simulations, steps, cracked
// seeds) there as JSON. Unlike BENCH_OUT, the baseline holds no wall
// times: every figure is a deterministic function of the fixed seeds,
// so the committed BENCH_baseline.json is byte-stable across machines
// and doubles as a regression check — a diff means the pipeline's
// behaviour changed, not just its speed.
func BenchmarkCampaignBaseline(b *testing.B) {
	var last telemetry.Snapshot
	var missions, found int
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(2)
		reg := telemetry.NewRegistry()
		cfg.Telemetry = telemetry.New(reg, nil)
		cells, err := experiments.Grid(context.Background(), cfg, fuzz.SwarmFuzz{})
		if err != nil {
			b.Fatal(err)
		}
		missions, found = 0, 0
		for _, c := range cells {
			for _, o := range c.Outcomes {
				missions++
				if o.Found {
					found++
				}
			}
		}
		last = reg.Snapshot()
	}
	b.ReportMetric(float64(missions), "missions")
	b.ReportMetric(float64(found), "cracked")

	if out := os.Getenv("BENCH_BASELINE"); out != "" {
		data, err := json.MarshalIndent(map[string]any{
			"missions":         missions,
			"missions_cracked": found,
			"sim_runs":         last.Counters[telemetry.MSimRuns],
			"sim_steps":        last.Counters[telemetry.MSimSteps],
			"seeds_scheduled":  last.Counters[telemetry.MSeedsScheduled],
			"seeds_cracked":    last.Counters[telemetry.MSeedsCracked],
			"svg_builds":       last.Counters[telemetry.MSVGBuilds],
			"search_iters":     last.Counters[telemetry.MSearchIters],
		}, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFlightRecorderOverhead pins the cost of the flight recorder
// on the simulation hot path. "disabled" is the default nil recorder:
// the runner pays exactly one nil-interface check per sampled step and
// nothing else. "enabled" streams the full JSONL flight log (with term
// decomposition) into io.Discard, bounding the worst-case recording
// cost per mission.
func BenchmarkFlightRecorderOverhead(b *testing.B) {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	mission, err := sim.NewMission(sim.DefaultMissionConfig(5, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("disabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(mission, sim.RunOptions{Controller: ctrl}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enabled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			log := flightlog.New(io.Discard, ctrl)
			if _, err := sim.Run(mission, sim.RunOptions{Controller: ctrl, Flight: log.Recorder("bench")}); err != nil {
				b.Fatal(err)
			}
			if err := log.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- micro-benchmarks for the substrates ---

// BenchmarkMissionStep measures the cost of one full mission
// simulation (the unit of every fuzzing iteration).
func BenchmarkMissionStep(b *testing.B) {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{5, 10, 15} {
		b.Run(benchName(n), func(b *testing.B) {
			mission, err := sim.NewMission(sim.DefaultMissionConfig(n, 1))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(mission, sim.RunOptions{Controller: ctrl}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func benchName(n int) string {
	return map[int]string{5: "5drones", 10: "10drones", 15: "15drones"}[n]
}

// BenchmarkSVGBuild measures Swarm Vulnerability Graph construction.
func BenchmarkSVGBuild(b *testing.B) {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	mission, err := sim.NewMission(sim.DefaultMissionConfig(10, 1))
	if err != nil {
		b.Fatal(err)
	}
	clean, err := sim.Run(mission, sim.RunOptions{Controller: ctrl, RecordTrajectory: true})
	if err != nil {
		b.Fatal(err)
	}
	snap, err := svg.ClosestSnapshot(clean.Trajectory)
	if err != nil {
		b.Fatal(err)
	}
	svgConfig := svg.Config{
		SpoofDistance:      10,
		InfluenceThreshold: fuzz.DefaultOptions().SVGThreshold,
		PageRank:           graph.DefaultPageRankOptions(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svg.Build(ctrl, &mission.World, mission.Axis, snap, gps.Right, svgConfig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageRank measures centrality analysis on a dense SVG-sized
// graph.
func BenchmarkPageRank(b *testing.B) {
	src := rng.New(1)
	g := graph.NewDigraph(15)
	for u := 0; u < 15; u++ {
		for v := 0; v < 15; v++ {
			if u != v && src.Bool(0.4) {
				if err := g.SetEdge(u, v, src.Uniform(0.1, 1)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.PageRank(g, graph.DefaultPageRankOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGradientDescent measures the optimizer on a synthetic bowl
// (no simulation), isolating search overhead.
func BenchmarkGradientDescent(b *testing.B) {
	f := func(ts, dt float64) float64 {
		return 1 + 0.05*((ts-30)*(ts-30)+(dt-12)*(dt-12))
	}
	opts := opt.DefaultOptions()
	opts.MaxIters = 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Minimize(f, 5, 5, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- hot-path regression benchmarks ---

// hotpathRecord merges one measurement into the JSON file named by the
// BENCH_HOTPATH environment variable (no-op when unset). The file maps
// benchmark keys to metric maps; `make bench` regenerates the committed
// BENCH_hotpath.json from it and `make bench-compare` diffs a fresh
// run against that baseline.
func hotpathRecord(b *testing.B, key string, metrics map[string]float64) {
	b.Helper()
	out := os.Getenv("BENCH_HOTPATH")
	if out == "" {
		return
	}
	benchRecord(b, out, key, metrics)
}

// benchRecord merges one measurement into an explicit JSON file; the
// shared writer behind hotpathRecord (BENCH_HOTPATH) and the
// observability benchmark (BENCH_OBS).
func benchRecord(b *testing.B, out, key string, metrics map[string]float64) {
	b.Helper()
	doc := map[string]map[string]float64{}
	if data, err := os.ReadFile(out); err == nil {
		_ = json.Unmarshal(data, &doc)
	}
	doc[key] = metrics
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// stepperFor builds a warmed-up Stepper (a few steps in, so every
// arena and scratch buffer has reached steady state).
func stepperFor(b *testing.B, ctrl sim.Controller, n int) (*sim.Mission, *sim.Stepper) {
	b.Helper()
	mission, err := sim.NewMission(sim.DefaultMissionConfig(n, 1))
	if err != nil {
		b.Fatal(err)
	}
	st, err := sim.NewStepper(mission, sim.RunOptions{Controller: ctrl})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Step(); err != nil {
			b.Fatal(err)
		}
	}
	return mission, st
}

// BenchmarkSimStep measures one simulation tick in steady state — the
// innermost unit of every fuzzing iteration — across swarm sizes. The
// hot path is allocation-free (pinned by TestStepperZeroAlloc and
// visible here as allocs/op = 0). With BENCH_HOTPATH set it also runs
// a fixed-size measured loop so the recorded ns/step figure is stable
// even under -benchtime=1x.
func BenchmarkSimStep(b *testing.B) {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	// Fixed-work step counts, scaled down for the large swarms whose
	// O(n²) interaction loop makes each step ~25–60× costlier — the
	// figures stay stable while the whole sweep finishes in seconds.
	stepsFor := func(n int) int {
		switch {
		case n <= 50:
			return 50_000
		case n <= 100:
			return 10_000
		default:
			return 2_000
		}
	}
	for _, n := range []int{5, 10, 25, 50, 100, 250} {
		b.Run(fmt.Sprintf("%ddrones", n), func(b *testing.B) {
			mission, st := stepperFor(b, ctrl, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done, err := st.Step()
				if err != nil {
					b.Fatal(err)
				}
				if done {
					b.StopTimer()
					_, st = stepperFor(b, ctrl, n)
					b.StartTimer()
				}
			}
			b.StopTimer()
			if os.Getenv("BENCH_HOTPATH") == "" {
				return
			}
			// Fixed-work measurement; stepper resets untimed.
			steps := stepsFor(n)
			_, st = stepperFor(b, ctrl, n)
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			var elapsed time.Duration
			t0 := time.Now()
			for i := 0; i < steps; i++ {
				done, err := st.Step()
				if err != nil {
					b.Fatal(err)
				}
				if done {
					elapsed += time.Since(t0)
					_, st = stepperFor(b, ctrl, n)
					t0 = time.Now()
				}
			}
			elapsed += time.Since(t0)
			runtime.ReadMemStats(&ms1)
			_ = mission
			hotpathRecord(b, fmt.Sprintf("sim_step_n%d", n), map[string]float64{
				"ns_per_step":     float64(elapsed.Nanoseconds()) / float64(steps),
				"allocs_per_step": float64(ms1.Mallocs-ms0.Mallocs) / float64(steps),
			})
		})
	}
}

// BenchmarkSeedSearch measures a full SwarmFuzz seed walk on one
// mission, sequentially and with four speculative workers. The two
// walks produce byte-identical reports (pinned in internal/fuzz); this
// benchmark shows what the speculation buys in wall time.
func BenchmarkSeedSearch(b *testing.B) {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	mission, err := sim.NewMission(sim.DefaultMissionConfig(5, 3))
	if err != nil {
		b.Fatal(err)
	}
	in := fuzz.Input{Mission: mission, Controller: ctrl, SpoofDistance: 10}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			opts := fuzz.DefaultOptions()
			opts.MaxIterPerSeed = 6
			opts.MaxSeeds = 8
			opts.SeedWorkers = workers
			b.ResetTimer()
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := (fuzz.SwarmFuzz{}).Fuzz(in, opts); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			hotpathRecord(b, fmt.Sprintf("seed_search_workers%d", workers), map[string]float64{
				"ns_per_walk": float64(time.Since(t0).Nanoseconds()) / float64(b.N),
			})
		})
	}
}

// BenchmarkSearchObserver pins the cost of atlas recording on the
// search hot path. "disabled" is the default nil Observe hook — the
// optimizer pays exactly one nil-func check per counted iterate and
// nothing else. "enabled" streams every iterate through a live
// atlas.Collector into io.Discard, bounding the worst-case recording
// cost per gradient descent. Both run the synthetic bowl (no
// simulation), isolating observer overhead from everything else. With
// BENCH_ATLAS set it records fixed-work ns/descent figures into the
// named file for the bench-compare gate.
func BenchmarkSearchObserver(b *testing.B) {
	f := func(ts, dt float64) float64 {
		return 1 + 0.05*((ts-30)*(ts-30)+(dt-12)*(dt-12))
	}
	gopts := opt.DefaultOptions()
	gopts.MaxIters = 20
	seed := svg.Seed{Target: 1, Victim: 0, Direction: gps.Left, Influence: 1, VDO: 5}

	// timeDescents measures n descents of fixed work; perSeed frames
	// each descent (nil for the bare run).
	timeDescents := func(b *testing.B, n int, opts opt.Options, perSeed func(func())) time.Duration {
		b.Helper()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			run := func() {
				if _, err := opt.Minimize(f, 5, 5, opts); err != nil {
					b.Fatal(err)
				}
			}
			if perSeed != nil {
				perSeed(run)
			} else {
				run()
			}
		}
		return time.Since(t0)
	}
	// Fixed-work measurements: sized so each figure integrates over
	// ≥10ms of descents, keeping the recorded ns/descent stable under
	// -benchtime=1x (the bare descent is sub-microsecond, so it needs
	// far more repetitions than the observed one).
	const bareDescents, observedDescents = 50_000, 2000

	var bareNS, observedNS float64
	b.Run("disabled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := opt.Minimize(f, 5, 5, gopts); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if os.Getenv("BENCH_ATLAS") != "" {
			bareNS = float64(timeDescents(b, bareDescents, gopts, nil).Nanoseconds()) / bareDescents
		}
	})
	b.Run("enabled", func(b *testing.B) {
		col := atlas.NewCollector(io.Discard, nil)
		col.BeginSearch(1, 5, 1)
		opts := gopts
		opts.Observe = func(it opt.Iterate) { col.SeedIterate(seed, it) }
		frame := func(run func()) {
			col.SeedStart(seed)
			run()
			col.SeedEnd(seed, gopts.MaxIters, false, "")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame(func() {
				if _, err := opt.Minimize(f, 5, 5, opts); err != nil {
					b.Fatal(err)
				}
			})
		}
		b.StopTimer()
		if col.Err() != nil {
			b.Fatal(col.Err())
		}
		if os.Getenv("BENCH_ATLAS") != "" {
			observedNS = float64(timeDescents(b, observedDescents, opts, frame).Nanoseconds()) / observedDescents
		}
	})
	if out := os.Getenv("BENCH_ATLAS"); out != "" {
		benchRecord(b, out, "search_observer", map[string]float64{
			"ns_per_descent_bare":     bareNS,
			"ns_per_descent_observed": observedNS,
		})
	}
}

// BenchmarkStatsSnapshot measures what one GET /v1/stats costs the
// daemon: a full registry snapshot plus percentile derivation over
// every latency histogram, taken while writer goroutines hammer the
// same registry — the contention profile of a dashboard polling a
// busy fleet. With BENCH_OBS set it records a fixed-work ns/snapshot
// figure into the named file for the bench-compare gate.
func BenchmarkStatsSnapshot(b *testing.B) {
	reg := telemetry.NewRegistry()
	latency := []string{
		"serve_queue_wait_seconds", "serve_job_wall_seconds",
		"serve_job_fuzz_wall_seconds", "serve_job_campaign_wall_seconds",
		"serve_job_grid_wall_seconds",
	}
	bounds := []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 300}
	for _, name := range latency {
		h := reg.Histogram(name, bounds...)
		for i := 0; i < 1000; i++ {
			h.Observe(float64(i%137) * 0.01)
		}
	}
	counters := []string{
		"serve_job_attempts_total", "serve_job_retries_total",
		"sim_runs", "sim_steps", "missions_done", "seeds_cracked",
	}
	for _, name := range counters {
		reg.Counter(name).Add(1000)
	}
	reg.Gauge("serve_queue_depth").Set(12)

	// Concurrent writers keep the registry contended for the whole
	// measurement, as live jobs would.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := reg.Histogram(latency[w%len(latency)], bounds...)
			c := reg.Counter(counters[w%len(counters)])
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					h.Observe(float64(i%97) * 0.003)
					c.Add(1)
				}
			}
		}(w)
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()

	snapshotOnce := func() float64 {
		snap := reg.Snapshot()
		var sink float64
		for _, name := range latency {
			h := snap.Histograms[name]
			sink += h.Quantile(0.50) + h.Quantile(0.90) + h.Quantile(0.99)
		}
		return sink
	}

	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += snapshotOnce()
	}
	b.StopTimer()
	if sink < 0 {
		b.Fatal("impossible: negative quantile sum")
	}

	out := os.Getenv("BENCH_OBS")
	if out == "" {
		return
	}
	// Fixed-work measurement: 5k snapshots averaged, so the recorded
	// figure is stable even under -benchtime=1x.
	const snaps = 5000
	t0 := time.Now()
	for i := 0; i < snaps; i++ {
		sink += snapshotOnce()
	}
	elapsed := time.Since(t0)
	benchRecord(b, out, "stats_snapshot", map[string]float64{
		"ns_per_snapshot": float64(elapsed.Nanoseconds()) / snaps,
	})
}
