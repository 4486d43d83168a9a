package serve

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"swarmfuzz/internal/chaos"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/telemetry"
)

// hardenedEngine builds an engine with explicit robustness wiring and
// a registry to read the counters back from.
func hardenedEngine(t *testing.T, dir string, stub fuzz.Fuzzer, opts Options) (*Engine, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	opts.Store = dir
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	opts.Fuzzers = map[string]fuzz.Fuzzer{"stub": stub}
	opts.Telemetry = telemetry.New(reg, nil)
	e, err := NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e, reg
}

func fuzzSpec(dist float64) JobSpec {
	return JobSpec{Kind: KindFuzz, Fuzzer: "stub", SwarmSize: 3, SpoofDistance: dist}
}

func TestQuarantineCorruptJobDir(t *testing.T) {
	dir := t.TempDir()
	e := testEngine(t, dir, newStub(), 1)
	e.Start(context.Background())
	st, err := e.Submit(fuzzSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, st.ID, StateDone)
	st2, err := e.Submit(fuzzSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, st2.ID, StateDone)
	e.Drain(5 * time.Second)

	// Corrupt the first job's status.json the way a torn manual edit or
	// a bad disk would.
	statusPath := filepath.Join(dir, "jobs", st.ID, "status.json")
	if err := os.WriteFile(statusPath, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	e2, reg := hardenedEngine(t, dir, newStub(), Options{})
	if _, err := e2.Get(st.ID); err == nil {
		t.Errorf("corrupt job %s still loaded", st.ID)
	}
	if _, err := e2.Get(st2.ID); err != nil {
		t.Errorf("healthy job %s lost in reload: %v", st2.ID, err)
	}
	if got := reg.Counter(MStoreQuarantined).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MStoreQuarantined, got)
	}
	qdir := filepath.Join(dir, "jobs", ".quarantine", st.ID)
	if _, err := os.Stat(qdir); err != nil {
		t.Errorf("quarantined dir missing: %v", err)
	}
	note, err := os.ReadFile(filepath.Join(qdir, "quarantine.json"))
	if err != nil || !strings.Contains(string(note), st.ID) {
		t.Errorf("quarantine note = %q, %v", note, err)
	}
	// The freed id is never reissued: a new submission gets a fresh one.
	e2.Start(context.Background())
	defer e2.Drain(5 * time.Second)
	st3, err := e2.Submit(fuzzSpec(12))
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID == st.ID || st3.ID == st2.ID {
		t.Errorf("new job reused id %s", st3.ID)
	}
}

// TestStoreRetriesTransientFault pins the harness's core promise: a
// single injected IO error costs a retry, not a job.
func TestStoreRetriesTransientFault(t *testing.T) {
	in := chaos.New(chaos.Spec{Faults: []chaos.Fault{
		{Op: chaos.OpWrite, Match: "status.json", Nth: 1, Kind: chaos.KindEIO},
	}}, nil, nil)
	e, reg := hardenedEngine(t, t.TempDir(), newStub(), Options{Chaos: in})
	e.Start(context.Background())
	defer e.Drain(5 * time.Second)
	st, err := e.Submit(fuzzSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, e, st.ID, StateDone)
	if final.IODegraded {
		t.Error("one transient fault must not degrade the job")
	}
	if got := reg.Counter(chaos.MFaultsInjected).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", chaos.MFaultsInjected, got)
	}
	if got := reg.Counter(MIODegraded).Value(); got != 0 {
		t.Errorf("%s = %d, want 0 (retry absorbed the fault)", MIODegraded, got)
	}
	if _, err := e.Report(st.ID); err != nil {
		t.Errorf("report after retried fault: %v", err)
	}
}

// TestIODegradedReportServedFromMemory drives every report write into
// the ground and checks the job still completes, flagged degraded,
// with its report served from the in-memory copy.
func TestIODegradedReportServedFromMemory(t *testing.T) {
	in := chaos.New(chaos.Spec{Faults: []chaos.Fault{
		{Op: chaos.OpWrite, Match: "report.json", Nth: 1, Times: 1000, Kind: chaos.KindENOSPC},
	}}, nil, nil)
	e, reg := hardenedEngine(t, t.TempDir(), newStub(), Options{Chaos: in})
	e.Start(context.Background())
	defer e.Drain(5 * time.Second)
	st, err := e.Submit(fuzzSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, e, st.ID, StateDone)
	if !final.IODegraded {
		t.Error("status not flagged io_degraded")
	}
	data, err := e.Report(st.ID)
	if err != nil || !strings.Contains(string(data), "StubFuzz") {
		t.Errorf("in-memory report = %q, %v", data, err)
	}
	if got := reg.Counter(MIODegraded).Value(); got < 1 {
		t.Errorf("%s = %d, want >= 1", MIODegraded, got)
	}
	events, err := e.store.ReadEvents(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range events {
		if ev.Type == "io_degraded" {
			found = true
		}
	}
	if !found {
		t.Errorf("no io_degraded event in stream: %+v", events)
	}
}

// TestWatchdogKillsStalledJob wedges the fuzzer and checks the
// watchdog kills the attempt, the retry machinery spends the remaining
// attempt, and the job fails with forensic evidence.
func TestWatchdogKillsStalledJob(t *testing.T) {
	stub := newStub()
	stub.blockOn[10] = true
	t.Cleanup(func() { close(stub.release) })
	e, reg := hardenedEngine(t, t.TempDir(), stub, Options{StallTimeout: 80 * time.Millisecond})
	e.Start(context.Background())
	defer e.Drain(time.Second)
	st, err := e.Submit(fuzzSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	final := waitState(t, e, st.ID, StateFailed)
	if !strings.Contains(final.Error, "stalled") {
		t.Errorf("failure reason = %q, want a stall verdict", final.Error)
	}
	if final.Attempts != 2 {
		t.Errorf("attempts = %d, want 2 (one retry before giving up)", final.Attempts)
	}
	if got := reg.Counter(MWatchdogKills).Value(); got != 2 {
		t.Errorf("%s = %d, want 2", MWatchdogKills, got)
	}
	events, err := e.store.ReadEvents(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	kills := 0
	for _, ev := range events {
		if ev.Type == "watchdog" {
			kills++
		}
	}
	if kills != 2 {
		t.Errorf("watchdog events = %d, want 2: %+v", kills, events)
	}
}

func TestIdempotentSubmitDedupes(t *testing.T) {
	dir := t.TempDir()
	e := testEngine(t, dir, newStub(), 1)
	e.Start(context.Background())
	spec := fuzzSpec(10)
	spec.IdempotencyKey = "ik-test-1"
	st1, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st1.SpecHash == "" {
		t.Error("accepted status carries no spec hash")
	}
	st2, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st1.ID {
		t.Errorf("resubmission enqueued a second job: %s vs %s", st2.ID, st1.ID)
	}
	waitState(t, e, st1.ID, StateDone)
	e.Drain(5 * time.Second)

	// The key survives restarts: it is part of the persisted spec.
	e2 := testEngine(t, dir, newStub(), 1)
	st3, err := e2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID != st1.ID {
		t.Errorf("post-restart resubmission got %s, want %s", st3.ID, st1.ID)
	}
	if jobs, _ := e2.JobsPage("", 0); len(jobs) != 1 {
		t.Errorf("store holds %d jobs, want 1", len(jobs))
	}
}

func TestGCSweepsOnlyExpiredTerminalJobs(t *testing.T) {
	stub := newStub()
	stub.blockOn[99] = true
	t.Cleanup(func() { close(stub.release) })
	e, reg := hardenedEngine(t, t.TempDir(), stub, Options{Workers: 2, JobTTL: time.Hour})
	e.Start(context.Background())
	defer e.Drain(time.Second)

	done, err := e.Submit(fuzzSpec(10))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, done.ID, StateDone)
	running, err := e.Submit(fuzzSpec(99))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, running.ID, StateRunning)

	if n := e.gcSweep(time.Now()); n != 0 {
		t.Errorf("fresh job collected: gcSweep = %d", n)
	}
	if n := e.gcSweep(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Errorf("gcSweep past TTL = %d, want 1 (the done job, never the running one)", n)
	}
	if _, err := e.Get(done.ID); err == nil {
		t.Error("collected job still listed")
	}
	if _, err := os.Stat(e.store.JobDir(done.ID)); !os.IsNotExist(err) {
		t.Errorf("collected job dir survives: %v", err)
	}
	if st, err := e.Get(running.ID); err != nil || st.State != StateRunning {
		t.Errorf("running job after sweep = %+v, %v", st, err)
	}
	if got := reg.Counter(MJobsGCed).Value(); got != 1 {
		t.Errorf("%s = %d, want 1", MJobsGCed, got)
	}
}

func TestJobsPageCursor(t *testing.T) {
	e := testEngine(t, t.TempDir(), newStub(), 1)
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := e.Submit(fuzzSpec(float64(10 + i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	var got []string
	after, pages := "", 0
	for {
		page, next := e.JobsPage(after, 2)
		for _, st := range page {
			got = append(got, st.ID)
		}
		pages++
		if next == "" {
			break
		}
		after = next
	}
	if len(got) != len(ids) || pages != 3 {
		t.Fatalf("paged listing = %v over %d pages, want %v over 3", got, pages, ids)
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("page order %v, want submission order %v", got, ids)
		}
	}
	if page, next := e.JobsPage(ids[len(ids)-1], 2); len(page) != 0 || next != "" {
		t.Errorf("page past the end = %v, %q", page, next)
	}
}
