package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"swarmfuzz/internal/experiments"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/gps"
)

// stubFuzzer is a scriptable fuzz.Fuzzer for engine tests. It succeeds
// deterministically, except that calls whose spoof distance is in
// blockOn park until release is closed — the hook the drain and cancel
// tests use to catch a job mid-flight.
type stubFuzzer struct {
	blockOn map[float64]bool
	release chan struct{}
	started chan struct{} // receives one token per blocked call

	mu    sync.Mutex
	calls int
}

func newStub() *stubFuzzer {
	return &stubFuzzer{
		blockOn: map[float64]bool{},
		release: make(chan struct{}),
		started: make(chan struct{}, 16),
	}
}

func (f *stubFuzzer) Name() string { return "StubFuzz" }

func (f *stubFuzzer) Fuzz(in fuzz.Input, _ fuzz.Options) (*fuzz.Report, error) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	if f.blockOn[in.SpoofDistance] {
		select {
		case f.started <- struct{}{}:
		default:
		}
		<-f.release
		return nil, errors.New("stub: released after test end")
	}
	return &fuzz.Report{
		Fuzzer: "StubFuzz", VDO: 1, Found: true, IterationsToFind: 1, SimRuns: 2,
		Findings: []fuzz.Finding{{Plan: gps.SpoofPlan{Start: 3, Duration: 4}}},
	}, nil
}

// testEngine builds an engine over a fresh store with the stub
// registered under the name "stub".
func testEngine(t *testing.T, dir string, stub fuzz.Fuzzer, workers int) *Engine {
	t.Helper()
	e, err := NewEngine(Options{
		Store:   dir,
		Workers: workers,
		Fuzzers: map[string]fuzz.Fuzzer{"stub": stub},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// waitState polls the job until it reaches want or the deadline hits.
func waitState(t *testing.T, e *Engine, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := e.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q (err %q), want %q", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSubmitValidates(t *testing.T) {
	e := testEngine(t, t.TempDir(), newStub(), 1)
	bad := []JobSpec{
		{},                             // no kind
		{Kind: "weird"},                // unknown kind
		{Kind: KindFuzz},               // swarm size 0
		{Kind: KindFuzz, SwarmSize: 3}, // no spoof distance
		{Kind: KindFuzz, SwarmSize: 3, SpoofDistance: 10, Fuzzer: "nope"},
		{Kind: KindCampaign, SwarmSize: 3, SpoofDistance: 10}, // no missions
		{Kind: KindGrid, Missions: 1, SwarmSizes: []int{1}},
		{Kind: KindFuzz, SwarmSize: 3, SpoofDistance: 10, Retries: -1},
	}
	for _, spec := range bad {
		spec.Fuzzer = firstNonEmpty(spec.Fuzzer, "stub")
		if _, err := e.Submit(spec); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", spec)
		}
	}
	if _, err := e.Get("j999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(unknown) = %v, want ErrNotFound", err)
	}
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

func TestBacklogOverflow(t *testing.T) {
	e, err := NewEngine(Options{
		Store:   t.TempDir(),
		Backlog: 2,
		Fuzzers: map[string]fuzz.Fuzzer{"stub": newStub()},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Engine never started: submissions stay queued.
	spec := JobSpec{Kind: KindFuzz, Fuzzer: "stub", SwarmSize: 3, SpoofDistance: 10}
	for range 2 {
		if _, err := e.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Submit(spec); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("third submit = %v, want ErrBacklogFull", err)
	}
	// Cancelling a queued job frees its backlog slot only once a worker
	// skips it, but cancellation itself must settle the job.
	st, err := e.Cancel(FormatID(0))
	if err != nil || st.State != StateCancelled {
		t.Fatalf("Cancel = %+v, %v; want cancelled", st, err)
	}
	if _, err := e.Cancel(FormatID(0)); !errors.Is(err, ErrConflict) {
		t.Errorf("second Cancel = %v, want ErrConflict", err)
	}
}

func TestFuzzJobProducesCanonicalReport(t *testing.T) {
	stub := newStub()
	e := testEngine(t, t.TempDir(), stub, 1)
	e.Start(context.Background())
	defer e.Drain(time.Second)

	spec := JobSpec{Kind: KindFuzz, Fuzzer: "stub", SwarmSize: 3, SpoofDistance: 10}
	st, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, e, st.ID, StateDone)
	if final.Attempts != 1 || final.FinishedUnix == 0 {
		t.Errorf("final status = %+v, want one attempt and a finish time", final)
	}

	got, err := e.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	wantSpec := spec
	wantSpec.Normalize()
	rep, _ := stub.Fuzz(fuzz.Input{SpoofDistance: 10}, fuzz.Options{})
	want, err := MarshalReport(NewFuzzReport(wantSpec, rep))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report bytes:\n got %s\nwant %s", got, want)
	}
}

func TestCancelRunningJob(t *testing.T) {
	stub := newStub()
	stub.blockOn[10] = true
	defer close(stub.release)
	e := testEngine(t, t.TempDir(), stub, 1)
	e.Start(context.Background())
	defer e.Drain(time.Second)

	st, err := e.Submit(JobSpec{Kind: KindFuzz, Fuzzer: "stub", SwarmSize: 3, SpoofDistance: 10})
	if err != nil {
		t.Fatal(err)
	}
	<-stub.started // the job is now parked inside the fuzzer
	if _, err := e.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, e, st.ID, StateCancelled)
	if final.FinishedUnix == 0 {
		t.Errorf("cancelled job has no finish time: %+v", final)
	}
	if _, err := e.Report(st.ID); !errors.Is(err, ErrConflict) {
		t.Errorf("Report(cancelled) = %v, want ErrConflict", err)
	}
}

// TestDrainRequeuesAndRestartResumes is the subsystem's core promise:
// a drain that interrupts a running grid job leaves the finished
// cell's checkpoint behind, the job goes back to queued, and a new
// engine over the same store finishes it — with a report byte-identical
// to an uninterrupted run.
func TestDrainRequeuesAndRestartResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	dir := t.TempDir()
	spec := JobSpec{
		Kind: KindGrid, Fuzzer: "stub", Missions: 2,
		SwarmSizes: []int{3}, SpoofDistances: []float64{5, 10},
		MaxIterPerSeed: 2, MaxSeeds: 1,
	}

	// First incarnation: the stub completes cell (3,5) and parks on
	// cell (3,10); Drain with a tiny grace cancels it back to queued.
	blocking := newStub()
	blocking.blockOn[10] = true
	defer close(blocking.release)
	e1 := testEngine(t, dir, blocking, 1)
	e1.Start(context.Background())
	st, err := e1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-blocking.started
	e1.Drain(10 * time.Millisecond)

	requeued, err := e1.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if requeued.State != StateQueued {
		t.Fatalf("after drain the job is %q, want queued", requeued.State)
	}
	store := e1.store
	ckpts, err := os.ReadDir(store.CheckpointDir(st.ID))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("checkpoint dir after drain: %v entries, err %v; want the finished cell's checkpoint", len(ckpts), err)
	}
	persisted, err := store.ReadStatus(st.ID)
	if err != nil || persisted.State != StateQueued {
		t.Fatalf("persisted status = %+v, %v; want queued on disk", persisted, err)
	}

	// Second incarnation over the same store: re-queued automatically,
	// resumes from the checkpoint, finishes.
	e2 := testEngine(t, dir, newStub(), 1)
	if st2, err := e2.Get(st.ID); err != nil || st2.State != StateQueued {
		t.Fatalf("restarted engine sees job as %+v, %v; want queued", st2, err)
	}
	e2.Start(context.Background())
	defer e2.Drain(time.Second)
	final := waitState(t, e2, st.ID, StateDone)
	if final.Attempts != 2 {
		t.Errorf("final attempts = %d, want 2 (one per incarnation)", final.Attempts)
	}
	got, err := e2.Report(st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the same spec run directly through experiments.Grid,
	// uninterrupted, encoded by the same canonical encoder.
	refSpec := spec
	refSpec.Normalize()
	cells, err := experiments.Grid(context.Background(), refSpec.CampaignConfig(), newStub())
	if err != nil {
		t.Fatal(err)
	}
	want, err := MarshalReport(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed report differs from uninterrupted reference:\n got %s\nwant %s", got, want)
	}
}

// TestCrashRestartRequeuesRunningJob simulates a daemon killed without
// any drain: the store says "running", and a fresh engine must re-queue
// the job with the restart counted.
func TestCrashRestartRequeuesRunningJob(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStoreWith(StoreOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id := FormatID(0)
	spec := JobSpec{Kind: KindFuzz, Fuzzer: "stub", SwarmSize: 3, SpoofDistance: 10}
	spec.Normalize()
	if err := store.WriteSpec(id, spec); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteStatus(JobStatus{
		ID: id, Kind: spec.Kind, Fuzzer: spec.Fuzzer,
		State: StateRunning, Attempts: 1, CreatedUnix: 1, StartedUnix: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.AppendEvent(id, []byte(`{"seq":1,"type":"state","state":"queued"}`)); err != nil {
		t.Fatal(err)
	}
	if err := store.AppendEvent(id, []byte(`{"seq":2,"type":"state","state":"running"}`)); err != nil {
		t.Fatal(err)
	}

	e := testEngine(t, dir, newStub(), 1)
	st, err := e.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Restarts != 1 {
		t.Fatalf("reloaded status = %+v, want queued with Restarts=1", st)
	}
	// The re-queue event continues the persisted seq numbering.
	events, err := store.ReadEvents(id)
	if err != nil {
		t.Fatal(err)
	}
	last := events[len(events)-1]
	if last.Seq != 3 || last.State != StateQueued {
		t.Fatalf("last persisted event = %+v, want seq 3 re-queue", last)
	}

	// And the job actually finishes on the restarted engine.
	e.Start(context.Background())
	defer e.Drain(time.Second)
	final := waitState(t, e, id, StateDone)
	if final.Attempts != 2 || final.Restarts != 1 {
		t.Errorf("final status = %+v, want Attempts=2 Restarts=1", final)
	}
}

func TestSubmitWhileDraining(t *testing.T) {
	e := testEngine(t, t.TempDir(), newStub(), 1)
	e.Start(context.Background())
	e.Drain(0)
	_, err := e.Submit(JobSpec{Kind: KindFuzz, Fuzzer: "stub", SwarmSize: 3, SpoofDistance: 10})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit while draining = %v, want ErrDraining", err)
	}
	if !e.Draining() {
		t.Error("Draining() = false after Drain")
	}
}

func TestJobsOrder(t *testing.T) {
	e := testEngine(t, t.TempDir(), newStub(), 1)
	for i := range 3 {
		spec := JobSpec{Kind: KindFuzz, Fuzzer: "stub", SwarmSize: 3, SpoofDistance: float64(1 + i)}
		if _, err := e.Submit(spec); err != nil {
			t.Fatal(err)
		}
	}
	jobs := e.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("Jobs() returned %d entries, want 3", len(jobs))
	}
	for i, st := range jobs {
		if want := FormatID(i); st.ID != want {
			t.Errorf("jobs[%d].ID = %s, want %s (submission order)", i, st.ID, want)
		}
	}
}

func TestEventStreamLifecycle(t *testing.T) {
	stub := newStub()
	e := testEngine(t, t.TempDir(), stub, 1)
	st, err := e.Submit(JobSpec{Kind: KindFuzz, Fuzzer: "stub", SwarmSize: 3, SpoofDistance: 10})
	if err != nil {
		t.Fatal(err)
	}
	history, live, cancel, err := e.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if len(history) != 1 || history[0].State != StateQueued || history[0].Seq != 1 {
		t.Fatalf("history = %+v, want the seq-1 queued event", history)
	}
	e.Start(context.Background())
	defer e.Drain(time.Second)

	var states []State
	for ev := range live { // closes when the job settles
		if ev.Type == "state" {
			states = append(states, ev.State)
		}
	}
	want := fmt.Sprintf("%v", []State{StateRunning, StateDone})
	if got := fmt.Sprintf("%v", states); got != want {
		t.Errorf("live states = %v, want %v", states, want)
	}
	// A late subscriber replays everything from the persisted stream.
	replay, liveAfter, cancel2, err := e.Subscribe(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	if liveAfter != nil {
		t.Error("live channel after settle should be nil (stream ended)")
	}
	if len(replay) != 3 {
		t.Errorf("replayed %d events, want 3 (queued, running, done)", len(replay))
	}
	for i, ev := range replay {
		if ev.Seq != i+1 {
			t.Errorf("replay[%d].Seq = %d, want %d", i, ev.Seq, i+1)
		}
	}
}
