package experiments

import (
	"bytes"
	"context"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"swarmfuzz/internal/flightlog"
	"swarmfuzz/internal/flock"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/robust"
	"swarmfuzz/internal/sim"
	"swarmfuzz/internal/telemetry"
)

// fastConfig returns a tiny campaign for tests.
func fastConfig(missions int) Config {
	cfg := DefaultConfig(missions)
	cfg.SwarmSizes = []int{3}
	cfg.SpoofDistances = []float64{10}
	cfg.Fuzz.MaxIterPerSeed = 2
	cfg.Fuzz.MaxSeeds = 1
	return cfg
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(100)
	if cfg.Missions != 100 {
		t.Errorf("missions = %d", cfg.Missions)
	}
	if len(cfg.SwarmSizes) != 3 || len(cfg.SpoofDistances) != 2 {
		t.Errorf("default grid wrong: %v × %v", cfg.SwarmSizes, cfg.SpoofDistances)
	}
}

func TestRunCampaignBasics(t *testing.T) {
	cfg := fastConfig(3)
	cell, err := RunCampaign(context.Background(), cfg, fuzz.RFuzz{}, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cell.SwarmSize != 3 || cell.SpoofDistance != 10 {
		t.Errorf("cell identity wrong: %+v", cell)
	}
	if len(cell.Outcomes) != 3 {
		t.Fatalf("got %d outcomes, want 3", len(cell.Outcomes))
	}
	for i, o := range cell.Outcomes {
		if o.VDO <= 0 {
			t.Errorf("outcome %d has non-positive VDO %v (clean-safe missions only)", i, o.VDO)
		}
	}
	rate := cell.SuccessRate()
	if rate < 0 || rate > 1 {
		t.Errorf("success rate %v outside [0,1]", rate)
	}
}

func TestRunCampaignDeterministic(t *testing.T) {
	cfg := fastConfig(2)
	a, err := RunCampaign(context.Background(), cfg, fuzz.RFuzz{}, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(context.Background(), cfg, fuzz.RFuzz{}, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Outcomes {
		if a.Outcomes[i] != b.Outcomes[i] {
			t.Fatalf("outcome %d differs: %+v vs %+v", i, a.Outcomes[i], b.Outcomes[i])
		}
	}
}

func TestCampaignAggregates(t *testing.T) {
	c := &CampaignResult{
		Outcomes: []MissionOutcome{
			{VDO: 1, Found: true, Iterations: 4, Start: 10, Duration: 8},
			{VDO: 2, Found: false},
			{VDO: 3, Found: true, Iterations: 6, Start: 20, Duration: 12},
		},
	}
	if got := c.SuccessRate(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("SuccessRate = %v", got)
	}
	if got := c.AvgIterations(); got != 5 {
		t.Errorf("AvgIterations = %v, want 5", got)
	}
	vdos := c.VDOs()
	if len(vdos) != 3 || vdos[1] != 2 {
		t.Errorf("VDOs = %v", vdos)
	}
	succ := c.Successes()
	if !succ[0] || succ[1] || !succ[2] {
		t.Errorf("Successes = %v", succ)
	}
	starts, durs := c.FoundParams()
	if len(starts) != 2 || starts[1] != 20 || durs[0] != 8 {
		t.Errorf("FoundParams = %v, %v", starts, durs)
	}
}

func TestSortedVDOThresholds(t *testing.T) {
	c := &CampaignResult{
		Outcomes: []MissionOutcome{{VDO: 3}, {VDO: 1}, {VDO: 3}, {VDO: 2}},
	}
	got := SortedVDOThresholds(c)
	want := []float64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("thresholds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("thresholds = %v, want %v", got, want)
		}
	}
}

func TestCellFor(t *testing.T) {
	cells := []*CampaignResult{
		{SwarmSize: 5, SpoofDistance: 10},
		{SwarmSize: 10, SpoofDistance: 5},
	}
	if got := CellFor(cells, 10, 5); got != cells[1] {
		t.Error("CellFor missed an existing cell")
	}
	if got := CellFor(cells, 15, 5); got != nil {
		t.Error("CellFor invented a cell")
	}
}

func TestRunnerTable3Fast(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cfg := fastConfig(1)
	var sb strings.Builder
	r := NewRunner(cfg, &sb, "")
	// Table3 runs all four fuzzers but with the fast config each costs
	// only a few simulations.
	if err := r.Table3(context.Background()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{"SwarmFuzz", "R_Fuzz", "G_Fuzz", "S_Fuzz"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table III output missing %s:\n%s", name, out)
		}
	}
}

// With the grid cached and holding the 5-drone, 10 m cell, Table III
// takes SwarmFuzz's column from it and runs only the other three
// fuzzers' campaigns.
func TestRunnerTable3ReusesGridCell(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cfg := fastConfig(1)
	cfg.SwarmSizes = []int{5}
	reg := telemetry.NewRegistry()
	cfg.Telemetry = telemetry.New(reg, nil)
	r := NewRunner(cfg, io.Discard, "")
	if err := r.Table1(context.Background()); err != nil {
		t.Fatal(err)
	}
	before := reg.Counter(telemetry.MMissionsPlanned).Value()
	if err := r.Table3(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(telemetry.MMissionsPlanned).Value() - before; got != 3 {
		t.Errorf("Table III planned %d missions, want 3 (one per campaign of R_Fuzz, G_Fuzz, S_Fuzz)", got)
	}
}

// Table III archives each fuzzer's flight logs in a subdirectory named
// after it, so no fuzzer's n5_d10 logs overwrite another's or the
// grid's. Every mission degrades under a 1 ns deadline, and each
// degraded mission gets a flight log.
func TestRunnerTable3FlightLogsPerFuzzer(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cfg := fastConfig(1)
	cfg.FlightDir = t.TempDir()
	cfg.MissionTimeout = time.Nanosecond
	cfg.Retry = robust.Policy{MaxAttempts: 1}
	name := flightlog.MissionName(5, 10, cfg.BaseSeed) + ".flight.jsonl"
	root := filepath.Join(cfg.FlightDir, name)
	sentinel := []byte("grid log\n")
	if err := os.WriteFile(root, sentinel, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := NewRunner(cfg, io.Discard, "").Table3(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"swarmfuzz", "r_fuzz", "g_fuzz", "s_fuzz"} {
		if _, err := os.Stat(filepath.Join(cfg.FlightDir, sub, name)); err != nil {
			t.Errorf("%s: %v", sub, err)
		}
	}
	if got, err := os.ReadFile(root); err != nil || !bytes.Equal(got, sentinel) {
		t.Errorf("root flight log overwritten (now %d bytes, %v)", len(got), err)
	}
}

// crackingConfig is a one-mission 5-drone, 10 m campaign whose only
// mission, seed 2, SwarmFuzz cracks with the paper's options.
func crackingConfig() Config {
	cfg := DefaultConfig(1)
	cfg.BaseSeed = 2
	cfg.SwarmSizes = []int{5}
	cfg.SpoofDistances = []float64{10}
	return cfg
}

// The plan an outcome rebuilds from its checkpointed tuple is the plan
// of the fuzzer's first finding, with its victim.
func TestOutcomeSpoofPlanMatchesFinding(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cfg := crackingConfig()
	mission, err := sim.NewMission(sim.DefaultMissionConfig(5, cfg.BaseSeed))
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := flock.New(flock.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fuzz.SwarmFuzz{}.Fuzz(fuzz.Input{Mission: mission, Controller: ctrl, SpoofDistance: 10}, cfg.Fuzz)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Found {
		t.Fatal("fixture mission not cracked")
	}
	cell, err := RunCampaign(context.Background(), cfg, fuzz.SwarmFuzz{}, 5, 10)
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeCell(cell)
	if err != nil {
		t.Fatal(err)
	}
	if cell, err = decodeCell(data, 5, 10); err != nil {
		t.Fatal(err)
	}
	o := cell.Outcomes[0]
	if o.Seed != cfg.BaseSeed || !o.Found {
		t.Fatalf("outcome = %+v, want seed %d cracked", o, cfg.BaseSeed)
	}
	want := rep.Findings[0]
	plan := o.SpoofPlan(10)
	if plan != want.Plan || o.Victim != want.Victim {
		t.Errorf("outcome rebuilds %v victim %d, finding is %v victim %d", plan, o.Victim, want.Plan, want.Victim)
	}
	if err := plan.Validate(); err != nil {
		t.Error(err)
	}
}

// Fig. 5 drawn from the cached grid's recorded finding renders what
// fuzzing the seed stream from scratch renders.
func TestRunnerFig5FromGridMatchesScan(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	ctx := context.Background()
	cfg := crackingConfig()
	var scan, fromGrid strings.Builder
	if err := NewRunner(cfg, &scan, "").Fig5(ctx); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(cfg, &fromGrid, "")
	if err := r.Table1(ctx); err != nil {
		t.Fatal(err)
	}
	fromGrid.Reset()
	if err := r.Fig5(ctx); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scan.String(), "Fig 5e") {
		t.Fatalf("scan found no SPV:\n%s", scan.String())
	}
	if scan.String() != fromGrid.String() {
		t.Errorf("Fig. 5 from the grid differs from the scan:\n--- scan ---\n%s--- grid ---\n%s",
			scan.String(), fromGrid.String())
	}
}

// With no grid cached, Fig. 5 takes its finding from the n5 d10 cell
// checkpointed in cfg.Checkpoint: it fuzzes nothing, its telemetry
// counts exactly the 42 objective-sweep simulations, and it renders
// what Fig. 5 from the cached grid renders.
func TestRunnerFig5FromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	ctx := context.Background()
	cfg := crackingConfig()
	cfg.Checkpoint = t.TempDir()
	var fromGrid, fromCheckpoint strings.Builder
	r := NewRunner(cfg, &fromGrid, "")
	if err := r.Table1(ctx); err != nil {
		t.Fatal(err)
	}
	fromGrid.Reset()
	if err := r.Fig5(ctx); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	cfg.Telemetry = telemetry.New(reg, nil)
	if err := NewRunner(cfg, &fromCheckpoint, "").Fig5(ctx); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fromGrid.String(), "Fig 5e") {
		t.Fatalf("grid found no SPV:\n%s", fromGrid.String())
	}
	if fromGrid.String() != fromCheckpoint.String() {
		t.Errorf("Fig. 5 from the checkpoint differs from the cached grid's:\n--- grid ---\n%s--- checkpoint ---\n%s",
			fromGrid.String(), fromCheckpoint.String())
	}
	for name, want := range map[string]int64{
		telemetry.MSimRuns:         42, // two 21-point sweeps, no clean or search run
		telemetry.MCheckpointLoads: 1,
		telemetry.MMissionsPlanned: 0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// A resumed Table III logs one line per fuzzer, each naming the
// checkpoint directory its cell came from.
func TestTable3ResumeLogNamesCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	ctx := context.Background()
	cfg := fastConfig(1)
	cfg.Checkpoint = t.TempDir()
	if err := NewRunner(cfg, io.Discard, "").Table3(ctx); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	cfg.Log = telemetry.NewLogger(&log, telemetry.LevelInfo)
	if err := NewRunner(cfg, io.Discard, "").Table3(ctx); err != nil {
		t.Fatal(err)
	}
	var resumed []string
	for _, line := range strings.Split(log.String(), "\n") {
		if strings.Contains(line, "resumed from checkpoint") {
			resumed = append(resumed, line)
		}
	}
	var want []string
	for _, sub := range []string{"swarmfuzz", "r_fuzz", "g_fuzz", "s_fuzz"} {
		want = append(want, "info: cell n=5 d=10m resumed from checkpoint "+filepath.Join(cfg.Checkpoint, sub))
	}
	if !slices.Equal(resumed, want) {
		t.Errorf("resume lines:\n%s\nwant:\n%s", strings.Join(resumed, "\n"), strings.Join(want, "\n"))
	}
}

func TestRunnerTable1Fast(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cfg := fastConfig(1)
	var sb strings.Builder
	r := NewRunner(cfg, &sb, "")
	if err := r.Table1(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table I") {
		t.Errorf("missing table title:\n%s", sb.String())
	}
	// The grid is cached: a second table must not re-run the campaign.
	lenBefore := len(sb.String())
	if err := r.Table2(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String()[lenBefore:], "Table II") {
		t.Error("Table II not rendered from cached grid")
	}
}

// TestCampaignTablesUnchangedBySeedWorkers pins the end-to-end
// determinism contract of the speculative seed search: a campaign run
// with SeedWorkers=4 must render byte-identical result tables to the
// sequential run — success rates, iteration averages, every cell.
func TestCampaignTablesUnchangedBySeedWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	render := func(workers int) string {
		cfg := fastConfig(2)
		cfg.Fuzz.MaxIterPerSeed = 4
		cfg.Fuzz.MaxSeeds = 3
		cfg.Fuzz.SeedWorkers = workers
		var sb strings.Builder
		r := NewRunner(cfg, &sb, "")
		if err := r.Table1(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := r.Table2(context.Background()); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	seq := render(0)
	par := render(4)
	if seq != par {
		t.Errorf("campaign tables differ with SeedWorkers=4:\nseq:\n%s\npar:\n%s", seq, par)
	}
}
