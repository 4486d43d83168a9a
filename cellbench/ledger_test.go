package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"swarmfuzz/internal/comms"
	"swarmfuzz/internal/experiments"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/telemetry"
)

// fixtureCampaign runs the tiny fixture cell (3 drones, 10 m, one
// mission, at most two seeds) into rec.
func fixtureCampaign(t *testing.T, rec telemetry.Recorder) *experiments.CampaignResult {
	t.Helper()
	cfg := campaignConfig(1, 1, rec)
	cfg.Fuzz.MaxSeeds = 2
	cell, err := experiments.RunCampaign(context.Background(), cfg, fuzz.SwarmFuzz{}, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

func TestLedgerAttributesStages(t *testing.T) {
	var cnt counter
	plain := fixtureCampaign(t, &cnt)
	led := newLedger()
	cell := fixtureCampaign(t, led)
	if !reflect.DeepEqual(plain, cell) {
		t.Fatal("traced campaign returned a different cell")
	}
	if err := led.closes(cnt.sims, cnt.steps); err != nil {
		t.Fatal(err)
	}

	stage := func(name string) stage {
		if s := led.stages[name]; s != nil {
			return *s
		}
		return stage{}
	}
	// The scan runs every candidate seed once, clean.
	if got, want := stage(scanStage).sims, int64(1+cell.SkippedUnsafe); got != want {
		t.Errorf("scan sims = %d, want %d", got, want)
	}
	if s := stage(cleanStage); s.sims != 1 || s.spans != 1 {
		t.Errorf("clean_run = %d sims in %d spans, want 1 in 1", s.sims, s.spans)
	}
	if s := stage(scheduleStage); s.sims != 0 || s.spans != 1 {
		t.Errorf("seed_scheduling = %d sims in %d spans, want 0 in 1", s.sims, s.spans)
	}
	search := stage(searchStage)
	if search.spans < 1 || search.spans > 2 {
		t.Errorf("gradient_search spans = %d, want 1..2 (MaxSeeds=2)", search.spans)
	}
	if want := cnt.sims - stage(scanStage).sims - 1; search.sims != want {
		t.Errorf("gradient_search sims = %d, want every other sim (%d)", search.sims, want)
	}
	if s := stage(noStage); s.sims != 0 {
		t.Errorf("%d sims charged outside any stage", s.sims)
	}
	if search.simWall <= 0 || search.wall.Seconds() < search.simWall {
		t.Errorf("search span %v holds %.6fs of sims", search.wall, search.simWall)
	}
	if c := led.coverage(); c <= 0 || c > 1 {
		t.Errorf("coverage = %v, want in (0, 1]", c)
	}
	if led.counters[telemetry.MSearchIters] < int64(search.spans) {
		t.Errorf("gradient_iterations = %d for %d seeds", led.counters[telemetry.MSearchIters], search.spans)
	}
}

func TestLedgerRejectsBrokenNesting(t *testing.T) {
	led := newLedger()
	outer := led.StartSpan(0, "outer")
	led.StartSpan(outer.ID(), "inner")
	outer.End()
	if err := led.closes(0, 0); err == nil {
		t.Fatal("outer span ended before inner, but the ledger closed")
	}

	led = newLedger()
	led.Add(telemetry.MSimRuns, 1)
	if err := led.closes(1, 0); err == nil {
		t.Fatal("a sim outside every span was accepted")
	}
}

// TestWrappedRunBitIdentical pins that the traced clean pass measures
// the same program: the timing wrappers around the controller and the
// bus leave the sim.Result bit for bit unchanged.
func TestWrappedRunBitIdentical(t *testing.T) {
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.NewMission(sim.DefaultMissionConfig(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := sim.Run(m, sim.RunOptions{Controller: ctrl, RecordTrajectory: true})
	if err != nil {
		t.Fatal(err)
	}
	tc := &timedController{Controller: ctrl}
	tb := timedBus{Bus: comms.NewPerfectBus(), s: &sampler{}}
	var cnt counter
	wrapped, err := sim.Run(m, sim.RunOptions{Controller: tc, Bus: tb, RecordTrajectory: true, Telemetry: &cnt})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, wrapped) {
		t.Fatal("wrapped run differs from the plain run")
	}
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(wrapped)
	if string(a) != string(b) {
		t.Fatal("wrapped run encodes differently from the plain run")
	}
	if want := 3 * cnt.steps; tc.calls != want {
		t.Errorf("controller calls = %d, want %d (3 drones x %d steps)", tc.calls, want, cnt.steps)
	}
	if tb.s.calls != cnt.steps {
		t.Errorf("bus exchanges = %d, want one per step (%d)", tb.s.calls, cnt.steps)
	}
	if tc.estimate() <= 0 || tb.s.estimate() <= 0 {
		t.Errorf("wrappers timed controller %v, bus %v", tc.estimate(), tb.s.estimate())
	}
}

func TestDrawMissionsBalanced(t *testing.T) {
	r := refs{}
	for s := uint64(1); s <= 40; s++ {
		r[s] = refEntry{Seed: s, Outcome: json.RawMessage(`{}`), Found: s%4 == 0, Sims: int64(100 + s*s%13), Steps: int64(1000 * s)}
	}
	w := workload{name: "t", crack: 1, exhaust: 3}
	a, err := drawMissions(w, r, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := drawMissions(w, r, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed drew %v then %v", a, b)
	}
	c, _ := drawMissions(w, r, 8)
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 7 and 8 both drew %v", a)
	}

	// The expected totals: one cracked mission's mean plus three
	// uncracked missions' mean.
	var mean [2][2]float64 // [found][sims, steps]
	var count [2]float64
	for _, e := range r {
		f := 0
		if e.Found {
			f = 1
		}
		mean[f][0] += float64(e.Sims)
		mean[f][1] += float64(e.Steps)
		count[f]++
	}
	wantSims := mean[1][0]/count[1] + 3*mean[0][0]/count[0]
	wantSteps := mean[1][1]/count[1] + 3*mean[0][1]/count[0]

	cracked, sims, steps := 0, int64(0), int64(0)
	for _, s := range a {
		if r[s].Found {
			cracked++
		}
		sims += r[s].Sims
		steps += r[s].Steps
	}
	if cracked != 1 || len(a) != 4 {
		t.Fatalf("drew %v: %d cracked of %d; want 1 of 4", a, cracked, len(a))
	}
	if math.Abs(float64(sims)-wantSims) > drawTolerance*wantSims {
		t.Errorf("draw %v holds %d sims, want %.1f ± %.0f%%", a, sims, wantSims, 100*drawTolerance)
	}
	if math.Abs(float64(steps)-wantSteps) > drawTolerance*wantSteps {
		t.Errorf("draw %v holds %d steps, want %.0f ± %.0f%%", a, steps, wantSteps, 100*drawTolerance)
	}
	if _, err := drawMissions(workload{name: "t", crack: 11}, r, 1); err == nil {
		t.Error("drew 11 cracked missions from a pool of 10")
	}
}

// stubPasser does fixed work without simulating.
type stubPasser struct{}

func (stubPasser) missions() int { return 1 }

func (stubPasser) mission(_ int, rec telemetry.Recorder, _ *stepLayers) (any, error) {
	span := rec.StartSpan(0, cleanStage)
	time.Sleep(time.Millisecond)
	rec.Add(telemetry.MSimRuns, 1)
	rec.Add(telemetry.MSimSteps, 10)
	span.End()
	return nil, nil
}

func (stubPasser) matches(int, any) bool { return true }

// TestMetricsMatchBenchmarkJSON pins the printed metric names and units
// to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: printed %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s: %s printed as %+v (present %v), want unit %q", kind, m.Name, g, ok, m.Unit)
			}
		}
	}
	res, err := measure(stubPasser{}, 0, &setups{fn: func() (passer, error) { return stubPasser{}, nil }})
	if err != nil {
		t.Fatal(err)
	}
	check("end_to_end", res.Metrics, spec.EndToEnd)
	res, err = measureTraced(stubPasser{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	check("per_layer", res.Metrics, spec.PerLayer)
}

// TestGaugeLeavesSamplesOut pins that an untraced pass samples the
// reference kernel at each mission's end and leaves the samples' time
// out of the pass's CPU time.
func TestGaugeLeavesSamplesOut(t *testing.T) {
	g := &gauge{}
	cnt := counter{gauge: g}
	c0 := cpuTime()
	r, err := runPass(stubPasser{}, &cnt, nil, nil, g)
	elapsed := cpuTime() - c0
	if err != nil {
		t.Fatal(err)
	}
	// The stub's one simulation ends well within refEvery of the
	// mission's start, so only the mission's end is sampled.
	if g.n != 1 {
		t.Fatalf("gauge took %d samples, want 1", g.n)
	}
	sample := refSample()
	if r.wall < time.Millisecond || r.cpu <= 0 || r.cpu+sample/2 > elapsed {
		t.Errorf("pass wall %v, CPU %v s, in %v s of CPU with a %v s sample", r.wall, r.cpu, elapsed, sample)
	}
	if r.ref <= 0 || math.IsInf(r.ref, 0) {
		t.Errorf("pass time at reference speed = %v s", r.ref)
	}
}
