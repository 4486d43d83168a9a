package fuzz

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"swarmfuzz/internal/flightlog"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/svg"
	"swarmfuzz/internal/telemetry"
)

// runPool raises GOMAXPROCS to 4 for the rest of the test. fuzzWith
// clamps SeedWorkers to GOMAXPROCS, so without this a one-CPU machine
// would compare the sequential walk with itself and never start the
// speculative pool.
func runPool(t *testing.T) {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// runForEquivalence fuzzes one fixed-seed input and returns the
// marshalled Report, the flight log bytes, the trace's spans with
// their timestamps zeroed, and the work counters the speculative walk
// must not distort.
func runForEquivalence(t *testing.T, f Fuzzer, in Input, opts Options, workers int) (repJSON, flight []byte, spans []telemetry.SpanEvent, simRuns, searchIters int64) {
	t.Helper()
	reg := telemetry.NewRegistry()
	var flightBuf, traceBuf bytes.Buffer
	log := flightlog.New(&flightBuf, nil)
	opts.Telemetry = telemetry.New(reg, &traceBuf)
	opts.Flight = log
	opts.SeedWorkers = workers
	rep, err := f.Fuzz(in, opts)
	if err != nil {
		t.Fatalf("%s workers=%d: %v", f.Name(), workers, err)
	}
	if err := log.Close(); err != nil {
		t.Fatalf("flight log: %v", err)
	}
	js, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	spans, err = telemetry.ReadSpans(&traceBuf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s workers=%d: trace holds no spans", f.Name(), workers)
	}
	for i := range spans {
		spans[i].StartUS, spans[i].EndUS, spans[i].DurUS = 0, 0, 0
	}
	return js, flightBuf.Bytes(), spans,
		reg.Counter(telemetry.MSimRuns).Value(),
		reg.Counter(telemetry.MSearchIters).Value()
}

// TestParallelSeedSearchMatchesSequential is the tentpole determinism
// property: for the gradient-guided fuzzers, the speculative walk at
// Workers ∈ {1, 4} must reproduce the sequential walk byte-for-byte —
// the full marshalled Report (seeds tried, iterations, SimRuns, the
// first finding), the flight log stream, the trace's spans (ID,
// parent, name and attributes, in order) and the campaign-facing
// telemetry counters. Speculative simulations of cancelled seeds must
// leave no trace anywhere.
func TestParallelSeedSearchMatchesSequential(t *testing.T) {
	runPool(t)
	fixtures := []struct {
		n    int
		seed uint64
	}{
		{4, 4}, // resilient under this budget
		{5, 4}, // cracks on the second seed
		{5, 3}, // resilient under this budget
	}
	for _, fz := range []Fuzzer{SwarmFuzz{}, GFuzz{}} {
		for _, fx := range fixtures {
			t.Run(fmt.Sprintf("%s/n%d_seed%d", fz.Name(), fx.n, fx.seed), func(t *testing.T) {
				in := Input{Mission: testMission(t, fx.n, fx.seed), Controller: testController(t), SpoofDistance: 10}
				opts := DefaultOptions()
				opts.MaxIterPerSeed = 6
				opts.MaxSeeds = 8

				seqRep, seqFlight, seqSpans, seqRuns, seqIters := runForEquivalence(t, fz, in, opts, 0)
				for _, workers := range []int{1, 4} {
					parRep, parFlight, parSpans, parRuns, parIters := runForEquivalence(t, fz, in, opts, workers)
					if !bytes.Equal(seqRep, parRep) {
						t.Errorf("workers=%d: report differs\nseq: %s\npar: %s", workers, seqRep, parRep)
					}
					if !bytes.Equal(seqFlight, parFlight) {
						t.Errorf("workers=%d: flight log differs (%d vs %d bytes)", workers, len(seqFlight), len(parFlight))
					}
					if !reflect.DeepEqual(seqSpans, parSpans) {
						t.Errorf("workers=%d: trace spans differ\nseq: %+v\npar: %+v", workers, seqSpans, parSpans)
					}
					if seqRuns != parRuns || seqIters != parIters {
						t.Errorf("workers=%d: counters differ: sim_runs %d vs %d, search_iters %d vs %d",
							workers, seqRuns, parRuns, seqIters, parIters)
					}
				}
			})
		}
	}
}

// TestParallelWalkFindsSPV pins that at least one equivalence fixture
// actually cracks, so the byte-identity test above exercises the
// cancellation and witness paths rather than only full resilient walks.
func TestParallelWalkFindsSPV(t *testing.T) {
	runPool(t)
	found := false
	for _, fx := range []struct {
		n    int
		seed uint64
	}{{4, 4}, {5, 4}, {5, 3}} {
		in := Input{Mission: testMission(t, fx.n, fx.seed), Controller: testController(t), SpoofDistance: 10}
		opts := DefaultOptions()
		opts.MaxIterPerSeed = 6
		opts.MaxSeeds = 8
		opts.SeedWorkers = 4
		rep, err := SwarmFuzz{}.Fuzz(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Found {
			found = true
			if len(rep.Findings) != 1 {
				t.Errorf("n%d seed%d: %d findings, want exactly the first", fx.n, fx.seed, len(rep.Findings))
			}
		}
	}
	if !found {
		t.Error("no fixture cracks: the equivalence test never exercises cancellation/witness commits")
	}
}

// TestParallelWalkPropagatesSeedErrors drives the speculative walk
// into its error path and checks it reports exactly what the
// sequential walk does: same aborted-walk error, same SeedErrors, and
// no commits from seeds scheduled after the failing one.
func TestParallelWalkPropagatesSeedErrors(t *testing.T) {
	runPool(t)
	in := Input{Mission: testMission(t, 4, 4), Controller: testController(t), SpoofDistance: 10}
	baseOpts := DefaultOptions()
	baseOpts.MaxIterPerSeed = 2

	seeds := func(in Input, _ *cleanRun, _ Options, _ telemetry.Recorder) ([]svg.Seed, error) {
		return []svg.Seed{
			{Target: 0, Victim: 1, Direction: gps.Right}, {Target: 1, Victim: 2, Direction: gps.Right},
			{Target: 2, Victim: 3, Direction: gps.Left}, {Target: 3, Victim: 0, Direction: gps.Right},
		}, nil
	}
	boom := errors.New("boom")
	failing := func(in Input, seed svg.Seed, cr *cleanRun, opts Options, rec telemetry.Recorder, trace searchTrace, stop func() bool) (int, *Finding, error) {
		if seed.Target == 1 {
			return 1, nil, boom
		}
		return gradientSearch(in, seed, cr, opts, rec, trace, stop)
	}

	run := func(workers int) (*Report, error) {
		opts := baseOpts
		opts.SeedWorkers = workers
		return fuzzWith(in, opts, "FailingFuzz", seeds, failing, "gradient_search", true)
	}
	seqRep, seqErr := run(0)
	for _, workers := range []int{2, 4} {
		parRep, parErr := run(workers)
		if !errors.Is(parErr, boom) {
			t.Fatalf("workers=%d: error %v does not wrap the seed failure", workers, parErr)
		}
		if seqErr == nil || parErr.Error() != seqErr.Error() {
			t.Errorf("workers=%d: error %q != sequential %q", workers, parErr, seqErr)
		}
		seqJS, _ := json.Marshal(seqRep)
		parJS, _ := json.Marshal(parRep)
		if !bytes.Equal(seqJS, parJS) {
			t.Errorf("workers=%d: report differs\nseq: %s\npar: %s", workers, seqJS, parJS)
		}
		if parRep.SeedsTried != 2 {
			t.Errorf("workers=%d: %d seeds committed, want 2 (up to the failure)", workers, parRep.SeedsTried)
		}
	}
}

// TestRandomFuzzersIgnoreSeedWorkers pins that the random-parameter
// fuzzers — whose sampling consumes one shared deterministic stream —
// produce identical reports whatever SeedWorkers is set to.
func TestRandomFuzzersIgnoreSeedWorkers(t *testing.T) {
	in := Input{Mission: testMission(t, 4, 3), Controller: testController(t), SpoofDistance: 10}
	for _, fz := range []Fuzzer{RFuzz{}, SFuzz{}} {
		opts := DefaultOptions()
		opts.MaxIterPerSeed = 2
		opts.MaxSeeds = 3
		seq, err := fz.Fuzz(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.SeedWorkers = 4
		par, err := fz.Fuzz(in, opts)
		if err != nil {
			t.Fatal(err)
		}
		seqJS, _ := json.Marshal(seq)
		parJS, _ := json.Marshal(par)
		if !bytes.Equal(seqJS, parJS) {
			t.Errorf("%s: report differs with SeedWorkers=4", fz.Name())
		}
	}
}
