package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/robust"
)

// stubFuzzer is a scriptable fuzz.Fuzzer for fault-isolation tests:
// per mission seed it can panic, hang until released, or fail a fixed
// number of attempts with a transient error before succeeding.
type stubFuzzer struct {
	panicOn map[uint64]bool
	hangOn  map[uint64]bool
	flakyOn map[uint64]int // transient failures before success
	release chan struct{}  // unblocks hung calls at test teardown

	mu       sync.Mutex
	attempts map[uint64]int
	calls    int
}

func newStubFuzzer() *stubFuzzer {
	return &stubFuzzer{
		panicOn:  map[uint64]bool{},
		hangOn:   map[uint64]bool{},
		flakyOn:  map[uint64]int{},
		release:  make(chan struct{}),
		attempts: map[uint64]int{},
	}
}

func (f *stubFuzzer) Name() string { return "StubFuzz" }

func (f *stubFuzzer) Fuzz(in fuzz.Input, _ fuzz.Options) (*fuzz.Report, error) {
	seed := in.Mission.Config.Seed
	f.mu.Lock()
	f.calls++
	f.attempts[seed]++
	attempt := f.attempts[seed]
	f.mu.Unlock()
	switch {
	case f.panicOn[seed]:
		panic(fmt.Sprintf("stub panic on seed %d", seed))
	case f.hangOn[seed]:
		<-f.release
		return nil, errors.New("stub: released after test end")
	case attempt <= f.flakyOn[seed]:
		return nil, robust.Transient(fmt.Errorf("stub: flaky attempt %d", attempt))
	}
	return &fuzz.Report{
		Fuzzer: "StubFuzz", VDO: 1, Found: true, IterationsToFind: 1,
		Findings: []fuzz.Finding{{Plan: gps.SpoofPlan{Start: 3, Duration: 4}}},
	}, nil
}

// selectedSeeds runs a campaign with an all-succeeding stub to learn
// which mission seeds the deterministic seed selection admits.
func selectedSeeds(t *testing.T, cfg Config, swarmSize int, spoofDistance float64) []uint64 {
	t.Helper()
	cell, err := RunCampaign(context.Background(), cfg, newStubFuzzer(), swarmSize, spoofDistance)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]uint64, len(cell.Outcomes))
	for i, o := range cell.Outcomes {
		seeds[i] = o.Seed
	}
	return seeds
}

func TestCampaignIsolatesFaults(t *testing.T) {
	cfg := fastConfig(5)
	cfg.MissionTimeout = 50 * time.Millisecond
	cfg.Retry = robust.Policy{MaxAttempts: 3}
	seeds := selectedSeeds(t, cfg, 3, 10)
	if len(seeds) != 5 {
		t.Fatalf("selected %d seeds, want 5", len(seeds))
	}

	f := newStubFuzzer()
	defer close(f.release)
	f.panicOn[seeds[0]] = true
	f.hangOn[seeds[1]] = true
	f.flakyOn[seeds[2]] = 1

	cell, err := RunCampaign(context.Background(), cfg, f, 3, 10)
	if err != nil {
		t.Fatalf("a campaign with faulty missions must still complete: %v", err)
	}
	if len(cell.Outcomes) != 5 {
		t.Fatalf("got %d outcomes, want 5 (degraded missions must stay in the cell)", len(cell.Outcomes))
	}
	byseed := map[uint64]MissionOutcome{}
	for _, o := range cell.Outcomes {
		byseed[o.Seed] = o
	}

	if o := byseed[seeds[0]]; !strings.Contains(o.Err, "panic") || o.Found {
		t.Errorf("panicking mission outcome = %+v, want recorded panic error", o)
	}
	if o := byseed[seeds[0]]; o.Retries != 0 {
		t.Errorf("panic retried %d times; panics are permanent", o.Retries)
	}
	if o := byseed[seeds[1]]; !strings.Contains(o.Err, "deadline") || o.Found {
		t.Errorf("hung mission outcome = %+v, want deadline error", o)
	}
	if o := byseed[seeds[1]]; o.Retries != 2 {
		t.Errorf("hung mission Retries = %d, want 2 (deadline misses are transient, budget 3 attempts)", o.Retries)
	}
	if o := byseed[seeds[2]]; o.Err != "" || !o.Found || o.Retries != 1 {
		t.Errorf("flaky mission outcome = %+v, want recovery after 1 retry", o)
	}
	for _, s := range seeds[3:] {
		if o := byseed[s]; o.Err != "" || !o.Found || o.Retries != 0 {
			t.Errorf("healthy mission %d outcome = %+v", s, o)
		}
	}
	if got := cell.Errored(); got != 2 {
		t.Errorf("Errored() = %d, want 2", got)
	}
	// Errored missions count against the success rate, not out of it.
	if got := cell.SuccessRate(); got != 3.0/5 {
		t.Errorf("SuccessRate = %v, want 0.6", got)
	}
}

func TestCampaignCancellation(t *testing.T) {
	cfg := fastConfig(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCampaign(ctx, cfg, newStubFuzzer(), 3, 10); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cells, err := Grid(ctx, cfg, newStubFuzzer())
	if !errors.Is(err, context.Canceled) || len(cells) != 0 {
		t.Fatalf("Grid = %d cells, %v; want 0 cells and context.Canceled", len(cells), err)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cell := &CampaignResult{
		SwarmSize: 7, SpoofDistance: 5, SkippedUnsafe: 2,
		Outcomes: []MissionOutcome{
			{Seed: 3, VDO: 1.25, Found: true, Iterations: 4, Start: 10.5, Duration: 8.25},
			{Seed: 4, VDO: 2.5, Err: "panic: boom", Retries: 1},
		},
	}
	if err := SaveCheckpoint(dir, cell); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(dir, 7, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cell) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, cell)
	}
	if missing, err := LoadCheckpoint(dir, 9, 5); err != nil || missing != nil {
		t.Errorf("missing cell = %+v, %v; want nil, nil", missing, err)
	}
	// A file holding the wrong configuration must not load silently.
	wrong := filepath.Join(dir, checkpointFile(8, 5))
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile(7, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wrong, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(dir, 8, 5); err == nil {
		t.Error("mismatched checkpoint loaded without error")
	}
}

// alwaysPanic fails the test if the grid consults it: a fully
// checkpointed grid must never fuzz.
type alwaysPanic struct{}

func (alwaysPanic) Name() string { return "AlwaysPanic" }
func (alwaysPanic) Fuzz(fuzz.Input, fuzz.Options) (*fuzz.Report, error) {
	panic("fuzzer consulted despite complete checkpoint")
}

func TestGridCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	ctx := context.Background()
	cfg := fastConfig(2)
	cfg.SpoofDistances = []float64{5, 10} // two cells

	ref, err := Grid(ctx, cfg, fuzz.RFuzz{})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ckpt := cfg
	ckpt.Checkpoint = dir
	first, err := Grid(ctx, ckpt, fuzz.RFuzz{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, first) {
		t.Fatal("checkpointed grid differs from plain grid")
	}

	// Simulate a kill between cells: drop the second cell's file and
	// resume. The first cell must load, the second recompute, and the
	// result must match the uninterrupted run exactly.
	if err := os.Remove(filepath.Join(dir, checkpointFile(3, 10))); err != nil {
		t.Fatal(err)
	}
	resumed, err := Grid(ctx, ckpt, fuzz.RFuzz{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, resumed) {
		t.Fatal("resumed grid differs from uninterrupted grid")
	}

	// With every cell checkpointed the fuzzer must never run; a
	// panicking stand-in proves it (and that recovery is not the
	// mechanism hiding it: a consulted fuzzer would surface as a
	// degraded outcome and break the comparison).
	cached, err := Grid(ctx, ckpt, alwaysPanic{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, cached) {
		t.Fatal("cached grid differs from uninterrupted grid")
	}
}

func TestGridCheckpointRejectsChangedSeed(t *testing.T) {
	cfg := fastConfig(2)
	cfg.Checkpoint = t.TempDir()
	if _, err := Grid(context.Background(), cfg, newStubFuzzer()); err != nil {
		t.Fatal(err)
	}
	// The same directory under the next base seed must not pass the
	// seed-1 cell off as the seed-2 one.
	cfg.BaseSeed++
	_, err := Grid(context.Background(), cfg, alwaysPanic{})
	if err == nil || !strings.Contains(err.Error(), "when changing -seed") {
		t.Fatalf("Grid over a checkpoint from another base seed = %v, want a changed -seed error", err)
	}
}

func TestRunnerTablesByteIdenticalAfterResume(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	ctx := context.Background()
	cfg := fastConfig(1)

	var fresh bytes.Buffer
	if err := NewRunner(cfg, &fresh, "").Table1(ctx); err != nil {
		t.Fatal(err)
	}

	// Populate a checkpoint, then render the same table from a runner
	// that resumes from it: output must match byte for byte.
	ckpt := cfg
	ckpt.Checkpoint = t.TempDir()
	if _, err := Grid(ctx, ckpt, fuzz.SwarmFuzz{}); err != nil {
		t.Fatal(err)
	}
	var resumed bytes.Buffer
	if err := NewRunner(ckpt, &resumed, "").Table1(ctx); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh.Bytes(), resumed.Bytes()) {
		t.Errorf("resumed table differs from fresh table:\n--- fresh ---\n%s--- resumed ---\n%s",
			fresh.String(), resumed.String())
	}
}

func TestGridCompletesWithInjectedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	cfg := fastConfig(10)
	cfg.SpoofDistances = []float64{5, 10} // two cells
	cfg.MissionTimeout = 50 * time.Millisecond
	cfg.Retry = robust.Policy{MaxAttempts: 2}

	// Stripe faults across the seed stream: ~10% of missions panic,
	// ~5% hang past the deadline, regardless of which seeds the
	// clean-safe selection admits.
	f := newStubFuzzer()
	defer close(f.release)
	for s := uint64(1); s <= uint64(cfg.Missions)*100; s++ {
		switch {
		case s%10 == 0:
			f.panicOn[s] = true
		case s%20 == 3:
			f.hangOn[s] = true
		}
	}

	cells, err := Grid(context.Background(), cfg, f)
	if err != nil {
		t.Fatalf("grid with injected faults must complete: %v", err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(cells))
	}
	errored := 0
	for _, c := range cells {
		if len(c.Outcomes) != cfg.Missions {
			t.Errorf("cell n=%d d=%g has %d outcomes, want %d",
				c.SwarmSize, c.SpoofDistance, len(c.Outcomes), cfg.Missions)
		}
		for _, o := range c.Outcomes {
			if o.Err == "" {
				continue
			}
			errored++
			if !strings.Contains(o.Err, "panic") && !strings.Contains(o.Err, "deadline") {
				t.Errorf("seed %d degraded with unexpected error %q", o.Seed, o.Err)
			}
		}
	}
	if errored == 0 {
		t.Error("fault injection produced no errored outcomes; striping missed every selected seed")
	}
}
