package serve_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"swarmfuzz/internal/experiments"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/gps"
	"swarmfuzz/internal/serve"
	"swarmfuzz/internal/serve/client"
	"swarmfuzz/internal/telemetry"
)

// okFuzzer deterministically finds one SPV per mission; enough to
// drive full campaign jobs through the HTTP API instantly.
type okFuzzer struct {
	mu    sync.Mutex
	calls int
}

func (f *okFuzzer) Name() string { return "StubFuzz" }

func (f *okFuzzer) Fuzz(fuzz.Input, fuzz.Options) (*fuzz.Report, error) {
	f.mu.Lock()
	f.calls++
	f.mu.Unlock()
	return &fuzz.Report{
		Fuzzer: "StubFuzz", VDO: 1, Found: true, IterationsToFind: 1, SimRuns: 2,
		Findings: []fuzz.Finding{{Plan: gps.SpoofPlan{Start: 3, Duration: 4}}},
	}, nil
}

// newTestDaemon spins up an engine + HTTP server over a fresh store
// and returns a client pointed at it, plus the telemetry registry
// backing /metrics.
func newTestDaemon(t *testing.T, fuzzers map[string]fuzz.Fuzzer) (*client.Client, *telemetry.Registry) {
	t.Helper()
	reg := telemetry.NewRegistry()
	tel := telemetry.New(reg, nil)
	e, err := serve.NewEngine(serve.Options{
		Store:     t.TempDir(),
		Workers:   2,
		Fuzzers:   fuzzers,
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	t.Cleanup(func() { e.Drain(5 * time.Second) })
	ts := httptest.NewServer(serve.NewServer(e, reg))
	t.Cleanup(ts.Close)
	return client.New(ts.URL), reg
}

// TestEndToEndCampaignJob is the subsystem's acceptance path: submit a
// campaign job over HTTP, follow its event stream, fetch the report,
// and check it is byte-identical to the same spec run directly through
// the experiments engine.
func TestEndToEndCampaignJob(t *testing.T) {
	c, reg := newTestDaemon(t, map[string]fuzz.Fuzzer{"stub": &okFuzzer{}})
	ctx := context.Background()

	spec := serve.JobSpec{
		Kind: serve.KindCampaign, Fuzzer: "stub",
		SwarmSize: 3, SpoofDistance: 10, Missions: 2,
		MaxIterPerSeed: 2, MaxSeeds: 1,
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateQueued || st.ID == "" {
		t.Fatalf("submit status = %+v, want a queued job with an id", st)
	}

	// Follow the stream until it ends (the job settling closes it).
	var states []serve.State
	progress := 0
	err = c.Events(ctx, st.ID, func(e serve.Event) error {
		switch e.Type {
		case "state":
			states = append(states, e.State)
		case "progress":
			progress++
		}
		return nil
	})
	if err != nil {
		t.Fatalf("event stream: %v", err)
	}
	if len(states) < 3 || states[0] != serve.StateQueued ||
		states[len(states)-1] != serve.StateDone {
		t.Errorf("states = %v, want queued … done", states)
	}
	if progress == 0 {
		t.Error("no progress events: the campaign's telemetry did not reach the stream")
	}

	final, err := c.Wait(ctx, st.ID)
	if err != nil || final.State != serve.StateDone {
		t.Fatalf("Wait = %+v, %v; want done", final, err)
	}
	got, err := c.Report(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the identical spec run directly, outside the daemon.
	refSpec := spec
	refSpec.Normalize()
	cell, err := experiments.RunCampaign(ctx, refSpec.CampaignConfig(), &okFuzzer{}, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.MarshalReport(cell)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("HTTP report differs from direct run:\n got %s\nwant %s", got, want)
	}

	// The daemon gauges announced in the issue must be on /metrics.
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		serve.MQueueDepth, serve.MJobsQueued, serve.MJobsRunning,
		serve.MJobsDone, serve.MJobsFailed, serve.MJobsCancelled,
		serve.MJobWallSeconds,
	} {
		if !strings.Contains(buf.String(), metric) {
			t.Errorf("/metrics misses %s", metric)
		}
	}
	if !strings.Contains(buf.String(), serve.MJobsDone+" 1") {
		t.Errorf("%s gauge != 1 after one finished job:\n%s", serve.MJobsDone, buf.String())
	}

	// Listing shows the job in submission order.
	jobs, err := c.List(ctx)
	if err != nil || len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Errorf("List = %+v, %v; want the one submitted job", jobs, err)
	}
}

// TestRealFuzzerByteIdentity runs the real SwarmFuzz fuzzer through
// the daemon and asserts the served report.json matches the same-seed
// direct run byte for byte — the paper pipeline behaves identically
// whether driven by the CLI or the service.
func TestRealFuzzerByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test in -short mode")
	}
	c, _ := newTestDaemon(t, nil) // nil registry: the built-in fuzzers
	ctx := context.Background()

	spec := serve.JobSpec{
		Kind: serve.KindCampaign, Fuzzer: "swarmfuzz",
		SwarmSize: 3, SpoofDistance: 10, Missions: 1,
		MaxIterPerSeed: 2, MaxSeeds: 1,
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil || final.State != serve.StateDone {
		t.Fatalf("Wait = %+v, %v; want done", final, err)
	}
	got, err := c.Report(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	refSpec := spec
	refSpec.Normalize()
	cell, err := experiments.RunCampaign(ctx, refSpec.CampaignConfig(), fuzz.SwarmFuzz{}, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.MarshalReport(cell)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("served report differs from the direct same-seed run:\n got %s\nwant %s", got, want)
	}
}

func TestAPIErrorMapping(t *testing.T) {
	c, _ := newTestDaemon(t, map[string]fuzz.Fuzzer{"stub": &okFuzzer{}})
	ctx := context.Background()

	if _, err := c.Get(ctx, "j999999"); client.StatusCode(err) != http.StatusNotFound {
		t.Errorf("Get(unknown) status = %d (%v), want 404", client.StatusCode(err), err)
	}
	_, err := c.Submit(ctx, serve.JobSpec{Kind: "weird", Fuzzer: "stub"})
	if client.StatusCode(err) != http.StatusBadRequest {
		t.Errorf("Submit(bad kind) status = %d (%v), want 400", client.StatusCode(err), err)
	}
	// The message names no program: cmd/swarmfuzzd adds its own prefix.
	_, err = c.Submit(ctx, serve.JobSpec{Kind: serve.KindFuzz, Fuzzer: "stub", SwarmSize: 3, SpoofDistance: 10, Postmortem: true})
	if want := "serve: postmortem needs flightlog (HTTP 400)"; err == nil || err.Error() != want {
		t.Errorf("Submit(postmortem only) error = %v, want %q", err, want)
	}
	// Unknown JSON fields are rejected, not silently dropped.
	resp, err := http.Post(c.Base+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"fuzz","swarm_size":3,"spoof_distance":10,"bogus":1}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown-field submit status = %d, want 400", resp.StatusCode)
	}
	// Report of an unfinished (here: nonexistent) job maps cleanly too.
	if _, err := c.Report(ctx, "j999999"); client.StatusCode(err) != http.StatusNotFound {
		t.Errorf("Report(unknown) status = %d, want 404", client.StatusCode(err))
	}
	if _, err := c.Cancel(ctx, "j999999"); client.StatusCode(err) != http.StatusNotFound {
		t.Errorf("Cancel(unknown) status = %d, want 404", client.StatusCode(err))
	}
}

func TestHealthAndReady(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, err := serve.NewEngine(serve.Options{
		Store:   t.TempDir(),
		Fuzzers: map[string]fuzz.Fuzzer{"stub": &okFuzzer{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	ts := httptest.NewServer(serve.NewServer(e, reg))
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", code)
	}
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("/readyz = %d, want 200", code)
	}
	if code := get("/metrics"); code != http.StatusOK {
		t.Errorf("/metrics = %d, want 200 (shared telemetry mux)", code)
	}
	e.Drain(time.Second)
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz while draining = %d, want 503", code)
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz while draining = %d, want 200 (process is alive)", code)
	}
	// Submits are refused with 503 while draining.
	c := client.New(ts.URL)
	_, err = c.Submit(context.Background(),
		serve.JobSpec{Kind: serve.KindFuzz, Fuzzer: "stub", SwarmSize: 3, SpoofDistance: 10})
	if client.StatusCode(err) != http.StatusServiceUnavailable {
		t.Errorf("Submit while draining status = %d (%v), want 503", client.StatusCode(err), err)
	}
}

// TestSSEStreamFormat checks the default (non-JSONL) stream shape.
func TestSSEStreamFormat(t *testing.T) {
	c, _ := newTestDaemon(t, map[string]fuzz.Fuzzer{"stub": &okFuzzer{}})
	ctx := context.Background()
	st, err := c.Submit(ctx, serve.JobSpec{
		Kind: serve.KindFuzz, Fuzzer: "stub", SwarmSize: 3, SpoofDistance: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(c.Base + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{"event: state\n", `"state":"queued"`, `"state":"done"`} {
		if !strings.Contains(text, want) {
			t.Errorf("SSE body misses %q:\n%s", want, text)
		}
	}
}
