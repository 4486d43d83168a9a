// Command cellbench is the repository's benchmark: it runs one workload
// — a paper Table I campaign cell, or the clean-run and seed-scheduling
// stages alone — checks every output against stored references, and
// prints its metrics as one JSON object on the last line of stdout.
//
//	cellbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of untraced runs;
// with --trace 1 it alternates untraced runs with runs traced through a
// cost ledger and reports per-layer metrics. `cellbench -gen-refs
// <workload>` regenerates a workload's reference file on stdout. See
// NOTES.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"swarmfuzz/internal/telemetry"
)

// workload is one benchmark input set.
type workload struct {
	name  string
	swarm int
	dist  float64
	// crack and exhaust are a table workload's missions per pass, drawn
	// from the reference pool's cracked and uncracked missions.
	crack, exhaust int
	// clean selects Fig. 3 steps 1–2 only, with no search, over
	// missions consecutive mission seeds from a base seed in 1..pool.
	clean          bool
	missions, pool int
	// upto is the last mission seed the references cover.
	upto uint64
}

var workloads = []workload{
	{name: "table1-n5-d10", swarm: 5, dist: 10, crack: 1, exhaust: 3, upto: 43},
	{name: "table1-n15-d10", swarm: 15, dist: 10, crack: 4, upto: 60},
	{name: "clean-n15", swarm: 15, dist: 10, clean: true, missions: 64, pool: 256, upto: 256 + 64 - 1},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// passResult is one pass over a workload's missions.
type passResult struct {
	missions    int
	failed      int
	wall        time.Duration // the missions' wall time
	sims, steps int64
	// cpu is a gauged pass's mission time in process CPU seconds, less
	// the gauge's samples, and ref is the same at the reference kernel's
	// nominal speed.
	cpu, ref float64
}

func (r passResult) missionsPerSec() float64 { return float64(r.missions) / r.wall.Seconds() }

// refMissionsPerSec is a gauged pass's missions per second at the
// reference kernel's nominal speed.
func (r passResult) refMissionsPerSec() float64 { return float64(r.missions) / r.ref }

// passer runs a prepared workload's missions one at a time. layers, when
// non-nil, times the controller and bus of the clean workload's runs (the
// campaign cells build their own controller, so they ignore it).
type passer interface {
	missions() int
	mission(i int, rec telemetry.Recorder, layers *stepLayers) (any, error)
	// matches reports whether mission i's output equals its reference.
	matches(i int, out any) bool
}

// runPass runs every mission of p once. Only the missions are timed:
// the output checks, and between, which runs after each mission, are not.
// g, when not nil, also times the missions in process CPU time and
// samples the host's speed at each mission's end (rec samples it at
// completed simulations); the samples' own time is left out of the
// pass's CPU time.
func runPass(p passer, rec telemetry.Recorder, layers *stepLayers, between func(), g *gauge) (passResult, error) {
	r := passResult{missions: p.missions()}
	for i := 0; i < r.missions; i++ {
		t0 := time.Now()
		g.begin()
		out, err := p.mission(i, rec, layers)
		r.wall += time.Since(t0)
		g.tick(true)
		if err != nil {
			return passResult{}, err
		}
		if !p.matches(i, out) {
			r.failed++
		}
		if between != nil {
			between()
		}
	}
	if g != nil {
		r.cpu, r.ref = g.cpu, g.ref
	}
	return r, nil
}

// setup prepares w for a workload seed: it draws the missions, loads
// their references and warms the simulator.
func setup(w workload, seed int64) (passer, error) {
	if w.clean {
		return setupClean(w, seed)
	}
	return setupTable(w, seed)
}

// A timed run repeats its set-up between missions for setupShare of its
// wall time, and setup_s is the median of those set-ups.
const setupShare = 0.05

// setups times repeated set-ups of one workload seed.
type setups struct {
	fn    func() (passer, error)
	times []float64 // seconds at the reference kernel's nominal speed
	spent float64   // wall seconds taken by the set-ups, their collections and samples
}

// run sets up once more. Each set-up starts from a collected heap, so
// none pays for the garbage of what ran before it. It is timed in
// process CPU time and scaled to the reference kernel's nominal speed by
// the mean of a sample of the kernel on either side of it.
func (s *setups) run() (passer, error) {
	gc := time.Now()
	runtime.GC()
	before := refSample()
	c0 := cpuTime()
	p, err := s.fn()
	d := cpuTime() - c0
	after := refSample()
	s.times = append(s.times, d*refNominal/((before+after)/2))
	s.spent += time.Since(gc).Seconds()
	return p, err
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cellbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cellbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 10, "measure for at least this many seconds")
		trace   = fs.Int("trace", 0, "1 = report per-layer metrics from traced runs")
		gen     = fs.String("gen-refs", "", "write the named workload's references to stdout and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gen != "" {
		w, err := findWorkload(*gen)
		if err != nil {
			return err
		}
		if w.clean {
			return genCleanRefs(w)
		}
		return genTableRefs(w, w.upto)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	su := &setups{fn: func() (passer, error) { return setup(w, *seed) }}
	p, err := su.run()
	if err != nil {
		return err
	}
	var res result
	if *trace == 1 {
		res, err = measureTraced(p, *seconds)
	} else {
		res, err = measure(p, *seconds, su)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d missions attempted, %d failed, correct=%v\n",
		w.name, *seed, res.Attempted, res.Failed, res.Correct)
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// tally accumulates one run's passes.
type tally struct {
	res      result
	untraced []passResult
	rates    []float64 // wall missions/s of the untraced passes
	refRates []float64 // their missions/s at the reference kernel's nominal speed
}

func newTally() *tally { return &tally{res: result{Correct: true}} }

func (t *tally) count(r passResult) {
	t.res.Attempted += r.missions
	t.res.Failed += r.failed
}

// runUntraced runs one pass with the counting recorder, sampling the
// host's speed into g when it is not nil. Every pass of a run goes over
// the same missions, so it must count the same work.
func (t *tally) runUntraced(p passer, between func(), g *gauge) (passResult, error) {
	cnt := counter{gauge: g}
	r, err := runPass(p, &cnt, nil, between, g)
	if err != nil {
		return r, err
	}
	r.sims, r.steps = cnt.sims, cnt.steps
	if len(t.untraced) > 0 {
		if first := t.untraced[0]; r.sims != first.sims || r.steps != first.steps {
			fmt.Fprintf(os.Stderr, "cellbench: passes over the same missions counted %d sims / %d steps, then %d / %d\n",
				first.sims, first.steps, r.sims, r.steps)
			t.res.Correct = false
		}
	}
	t.untraced = append(t.untraced, r)
	t.rates = append(t.rates, r.missionsPerSec())
	if g != nil {
		t.refRates = append(t.refRates, r.refMissionsPerSec())
	}
	t.count(r)
	return r, nil
}

// measure repeats untraced passes for at least seconds, sampling su's
// set-up between missions, and reports the end-to-end metrics.
func measure(p passer, seconds float64, su *setups) (result, error) {
	start := time.Now()
	t := newTally()
	var setupErr error
	between := func() {
		for setupErr == nil && su.spent < setupShare*time.Since(start).Seconds() {
			_, setupErr = su.run()
		}
	}
	for len(t.untraced) == 0 || time.Since(start).Seconds() < seconds {
		if _, err := t.runUntraced(p, between, &gauge{}); err != nil {
			return result{}, err
		}
		if setupErr != nil {
			return result{}, setupErr
		}
	}
	var scales []float64
	for _, r := range t.untraced {
		scales = append(scales, r.ref/r.cpu)
	}
	fmt.Fprintf(os.Stderr, "missions/s by pass, wall: %.4f\n", t.rates)
	fmt.Fprintf(os.Stderr, "missions/s by pass, at reference speed: %.4f\n", t.refRates)
	fmt.Fprintf(os.Stderr, "reference scale by pass: %.4f\n", scales)
	fmt.Fprintf(os.Stderr, "set-up s at reference speed: median %.5f of %d\n", median(su.times), len(su.times))
	first := t.untraced[0]
	res := t.res
	res.Correct = res.Correct && res.Failed == 0
	res.Metrics = map[string]metric{
		"missions_per_s":    {median(t.refRates), "1/s"},
		"sims_per_mission":  {float64(first.sims) / float64(first.missions), "sims/mission"},
		"steps_per_mission": {float64(first.steps) / float64(first.missions), "steps/mission"},
		"setup_s":           {median(su.times), "s"},
		"peak_rss_mb":       {peakRSSMB(), "MB"},
	}
	return res, nil
}

// measureTraced alternates untraced and traced passes for at least
// seconds (at least one of each) and reports the per-layer metrics.
func measureTraced(p passer, seconds float64) (result, error) {
	start := time.Now()
	t := newTally()
	led := newLedger()
	layers := &stepLayers{}
	var (
		tracedRates []float64
		missions    int // traced
		ms0, ms1    runtime.MemStats
		allocBytes  uint64
		gcCycles    uint32
	)
	for len(tracedRates) == 0 || time.Since(start).Seconds() < seconds {
		runtime.ReadMemStats(&ms0)
		// Untraced passes here carry no gauge, so they and the traced
		// passes are timed alike and telemetry.overhead_ratio compares
		// wall times without samples in either.
		if _, err := t.runUntraced(p, nil, nil); err != nil {
			return result{}, err
		}
		runtime.ReadMemStats(&ms1)
		allocBytes += ms1.TotalAlloc - ms0.TotalAlloc
		gcCycles += ms1.NumGC - ms0.NumGC

		r, err := runPass(p, led, layers, nil, nil)
		if err != nil {
			return result{}, err
		}
		tracedRates = append(tracedRates, r.missionsPerSec())
		missions += r.missions
		t.count(r)
	}

	// Ledger closure: the traced passes did exactly the untraced work.
	res := t.res
	first := t.untraced[0]
	n := int64(len(tracedRates))
	if err := led.closes(n*first.sims, n*first.steps); err != nil {
		fmt.Fprintln(os.Stderr, "cellbench:", err)
		res.Correct = false
	}
	coverage := led.coverage()
	if coverage < minCoverage {
		fmt.Fprintf(os.Stderr, "cellbench: stage spans cover %.1f%% of traced wall time, want >= %.0f%%\n",
			100*coverage, 100*minCoverage)
		res.Correct = false
	}
	res.Correct = res.Correct && res.Failed == 0

	passes := float64(len(t.untraced))
	res.Metrics = layerMetrics(led, layers, float64(missions))
	res.Metrics["telemetry.stage_coverage"] = metric{coverage, "ratio"}
	res.Metrics["telemetry.overhead_ratio"] = metric{median(t.rates) / median(tracedRates), "ratio"}
	res.Metrics["runtime.alloc_bytes_per_mission"] = metric{float64(allocBytes) / (passes * float64(first.missions)), "B/mission"}
	res.Metrics["runtime.gc_cycles"] = metric{float64(gcCycles) / passes, "count"}
	return res, nil
}

// minCoverage is the share of a traced campaign's (or clean mission's)
// wall time its stage spans must cover for the ledger to explain it.
const minCoverage = 0.95

// layerMetrics derives the per-layer metrics from a traced run of the
// given number of missions. Time metrics are seconds per mission.
// Layers a workload does not run report 0.
func layerMetrics(l *ledger, layers *stepLayers, missions float64) map[string]metric {
	get := func(name string) stage {
		if s := l.stages[name]; s != nil {
			return *s
		}
		return stage{}
	}
	perMission := func(d time.Duration) float64 { return d.Seconds() / missions }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	scan, clean, sched, search := get(scanStage), get(cleanStage), get(scheduleStage), get(searchStage)
	build, schedule := get(svgBuildStage), get(svgSchedStage)
	total := l.totals()
	iters := float64(l.counters[telemetry.MSearchIters])

	var ctrlBusy time.Duration
	var commands int64
	if layers.ctrl != nil {
		ctrlBusy, commands = layers.ctrl.estimate(), layers.ctrl.calls
	}
	exchange := layers.exchange.estimate()
	stepOther := 0.0
	if commands > 0 {
		stepOther = clean.simWall - ctrlBusy.Seconds() - exchange.Seconds()
	}
	return map[string]metric{
		"experiments.scan_sims_per_mission": {float64(scan.sims) / missions, "sims/mission"},
		"experiments.scan_s":                {perMission(scan.wall), "s/mission"},
		"fuzz.clean_run_s":                  {perMission(clean.wall), "s/mission"},
		"fuzz.schedule_s":                   {perMission(sched.wall + build.wall + schedule.wall), "s/mission"},
		"fuzz.search_s":                     {perMission(search.wall), "s/mission"},
		"fuzz.search_sims_per_mission":      {float64(search.sims) / missions, "sims/mission"},
		"fuzz.search_steps_per_mission":     {float64(search.steps) / missions, "steps/mission"},
		"fuzz.seeds_tried_per_mission":      {float64(search.spans) / missions, "seeds/mission"},
		"fuzz.crack_yield":                  {ratio(float64(l.counters[telemetry.MSeedsCracked]), float64(search.spans)), "ratio"},
		"fuzz.search_self_s":                {(search.wall.Seconds() - search.simWall) / missions, "s/mission"},
		"opt.iters_per_mission":             {iters / missions, "iters/mission"},
		"opt.sims_per_iter":                 {ratio(float64(search.sims), iters), "sims/iter"},
		"sim.busy_s":                        {total.simWall / missions, "s/mission"},
		"sim.ns_per_step":                   {ratio(total.simWall*1e9, float64(total.steps)), "ns/step"},
		"sim.steps_per_run":                 {ratio(float64(total.steps), float64(total.sims)), "steps/run"},
		"flock.ns_per_command":              {ratio(float64(ctrlBusy.Nanoseconds()), float64(commands)), "ns/command"},
		"comms.exchange_s":                  {perMission(exchange), "s/mission"},
		"sim.step_other_s":                  {stepOther / missions, "s/mission"},
		"svg.build_s":                       {perMission(build.wall), "s/mission"},
		"svg.schedule_s":                    {perMission(schedule.wall), "s/mission"},
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
