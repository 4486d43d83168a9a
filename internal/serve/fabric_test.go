package serve_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"swarmfuzz/internal/experiments"
	"swarmfuzz/internal/fabric"
	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/serve"
	"swarmfuzz/internal/serve/client"
	"swarmfuzz/internal/telemetry"
)

// count reads the stub fuzzer's invocation counter: the serve-level
// proxy for "simulation steps ran".
func (f *okFuzzer) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// newFabricDaemon is newTestDaemon with caller-controlled options and
// registry, for daemons that attach a fabric coordinator or a result
// cache (whose recorder must share the daemon's registry).
func newFabricDaemon(t *testing.T, reg *telemetry.Registry, opts serve.Options) *client.Client {
	t.Helper()
	opts.Store = t.TempDir()
	opts.Workers = 2
	opts.Telemetry = telemetry.New(reg, nil)
	e, err := serve.NewEngine(opts)
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	t.Cleanup(func() { e.Drain(5 * time.Second) })
	ts := httptest.NewServer(serve.NewServer(e, reg))
	t.Cleanup(ts.Close)
	return client.New(ts.URL)
}

// TestFabricGridShardingByteIdentity is the fabric's acceptance path:
// a grid job sharded across two worker daemons — one killed mid-lease
// — produces a report and atlas byte-identical to the same-seed direct
// run, with the per-cell fabric spans stitched under the job root.
func TestFabricGridShardingByteIdentity(t *testing.T) {
	ctx := context.Background()
	reg := telemetry.NewRegistry()
	coord := fabric.NewCoordinator(fabric.Options{
		LeaseTTL:      200 * time.Millisecond,
		NoWorkerGrace: 30 * time.Second,
		Telemetry:     telemetry.New(reg, nil),
	})
	c := newFabricDaemon(t, reg, serve.Options{
		Fuzzers: map[string]fuzz.Fuzzer{"stub": &okFuzzer{}},
		Fabric:  coord,
	})

	// Worker 1 leases a cell and never answers again: its runner blocks
	// until its context dies, and cancelling that context models a
	// kill -9 mid-lease. The coordinator must expire the lease and
	// re-assign the cell.
	leased := make(chan struct{})
	var leaseOnce sync.Once
	w1ctx, killW1 := context.WithCancel(ctx)
	defer killW1()
	w1, err := fabric.NewWorker(fabric.WorkerOptions{
		Coordinator: c.Base, ID: "w1", Poll: 10 * time.Millisecond,
		Run: func(ctx context.Context, u fabric.Unit) (fabric.CellOutput, error) {
			leaseOnce.Do(func() { close(leased) })
			<-ctx.Done()
			return fabric.CellOutput{}, ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = w1.Run(w1ctx) }()

	// The engine only shards once a worker has been seen; wait for w1's
	// first poll to register it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st fabric.Status
		if getJSON(t, c.Base+"/fabric/v1/status", &st); st.LiveWorkers >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never registered: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}

	spec := serve.JobSpec{
		Kind: serve.KindGrid, Fuzzer: "stub",
		SwarmSizes: []int{3, 4}, SpoofDistances: []float64{10},
		Missions: 2, MaxIterPerSeed: 2, MaxSeeds: 1,
		Atlas: true,
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	<-leased
	killW1()
	wg.Wait()

	// Worker 2 runs the real cell runner and completes everything,
	// including the cell w1 died holding.
	w2, err := fabric.NewWorker(fabric.WorkerOptions{
		Coordinator: c.Base, ID: "w2", Poll: 10 * time.Millisecond,
		Run: serve.CellRunner(serve.CellRunnerOptions{
			Fuzzers: map[string]fuzz.Fuzzer{"stub": &okFuzzer{}},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	w2ctx, stopW2 := context.WithCancel(ctx)
	wg.Add(1)
	go func() { defer wg.Done(); _ = w2.Run(w2ctx) }()
	t.Cleanup(func() { stopW2(); wg.Wait() })

	final, err := c.Wait(ctx, st.ID)
	if err != nil || final.State != serve.StateDone {
		t.Fatalf("Wait = %+v, %v; want done", final, err)
	}
	if final.CacheHit {
		t.Error("freshly-executed job marked cache_hit")
	}
	got, err := c.Report(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	gotAtlas, err := c.Atlas(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Reference: the identical spec run directly, single-node.
	refSpec := spec
	refSpec.Normalize()
	cfg := refSpec.CampaignConfig()
	cfg.AtlasPath = filepath.Join(t.TempDir(), "atlas.jsonl")
	cells, err := experiments.Grid(ctx, cfg, &okFuzzer{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := serve.MarshalReport(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fabric-run report differs from the direct run:\n got %s\nwant %s", got, want)
	}
	wantAtlas, err := os.ReadFile(cfg.AtlasPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotAtlas, wantAtlas) {
		t.Errorf("fabric-run atlas differs from the direct run (%d vs %d bytes)", len(gotAtlas), len(wantAtlas))
	}

	// The kill shows in the lease ledger: one expiry, and every cell
	// completed exactly once.
	var fst fabric.Status
	if resp := getJSON(t, c.Base+"/fabric/v1/status", &fst); resp.StatusCode != http.StatusOK {
		t.Fatalf("fabric status: HTTP %d", resp.StatusCode)
	}
	if fst.LeasesExpired < 1 {
		t.Errorf("leases_expired = %d, want >= 1 after killing w1 mid-lease", fst.LeasesExpired)
	}
	if fst.LeasesCompleted != 2 {
		t.Errorf("leases_completed = %d, want 2 (one per cell)", fst.LeasesCompleted)
	}
	if fst.Pending != 0 || fst.Leased != 0 || fst.ActiveJobs != 0 {
		t.Errorf("fabric not drained after the job: %+v", fst)
	}
	snap := reg.Snapshot()
	if snap.Counters[fabric.MLeasesGranted] < 3 {
		t.Errorf("%s = %d, want >= 3 (2 cells + 1 re-grant)", fabric.MLeasesGranted, snap.Counters[fabric.MLeasesGranted])
	}
	if snap.Counters[fabric.MLeasesExpired] < 1 {
		t.Errorf("%s = %d, want >= 1", fabric.MLeasesExpired, snap.Counters[fabric.MLeasesExpired])
	}

	// Per-cell fabric spans are stitched under the job root span.
	spans, err := c.Trace(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	fabricSpans := 0
	for _, span := range spans {
		if span.Name != "fabric_cell" {
			continue
		}
		fabricSpans++
		if span.Parent == 0 {
			t.Errorf("fabric_cell span %d not stitched under the job root", span.ID)
		}
	}
	if fabricSpans != 2 {
		t.Errorf("trace has %d fabric_cell spans, want 2", fabricSpans)
	}
}

// TestResultCacheServesResubmission pins the fleet-wide cache: the
// same spec resubmitted by a different client — carrying a different
// idempotency key — settles done from the cache with zero new sim
// steps, byte-identical artifacts and the hit counter ticking.
func TestResultCacheServesResubmission(t *testing.T) {
	ctx := context.Background()
	cache, err := fabric.OpenCache(filepath.Join(t.TempDir(), "cache"), nil)
	if err != nil {
		t.Fatal(err)
	}
	stub := &okFuzzer{}
	reg := telemetry.NewRegistry()
	c := newFabricDaemon(t, reg, serve.Options{
		Fuzzers: map[string]fuzz.Fuzzer{"stub": stub},
		Cache:   cache,
	})

	spec := serve.JobSpec{
		Kind: serve.KindCampaign, Fuzzer: "stub",
		SwarmSize: 3, SpoofDistance: 10, Missions: 2,
		MaxIterPerSeed: 2, MaxSeeds: 1,
		Atlas: true,
	}
	st1, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final1, err := c.Wait(ctx, st1.ID)
	if err != nil || final1.State != serve.StateDone {
		t.Fatalf("Wait = %+v, %v; want done", final1, err)
	}
	if final1.CacheHit {
		t.Error("first execution marked cache_hit")
	}
	rep1, err := c.Report(ctx, st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	atlas1, err := c.Atlas(ctx, st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	callsAfterFirst := stub.count()

	// A different client generates its own idempotency key, so this
	// resubmission reaches the cache rather than the dedup table.
	c2 := client.New(c.Base)
	st2, err := c2.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != serve.StateDone || !st2.CacheHit {
		t.Fatalf("resubmission status = %+v, want done with cache_hit", st2)
	}
	if st2.ID == st1.ID {
		t.Error("cache hit reused the original job id")
	}
	if got := stub.count(); got != callsAfterFirst {
		t.Errorf("resubmission ran the fuzzer: %d calls, want %d", got, callsAfterFirst)
	}

	// The cached job reads exactly like an executed one.
	if final2, err := c2.Wait(ctx, st2.ID); err != nil || final2.State != serve.StateDone || !final2.CacheHit {
		t.Errorf("Wait(cached) = %+v, %v; want done cache_hit", final2, err)
	}
	rep2, err := c2.Report(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rep1, rep2) {
		t.Errorf("cached report differs:\n got %s\nwant %s", rep2, rep1)
	}
	atlas2, err := c2.Atlas(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(atlas1, atlas2) {
		t.Errorf("cached atlas differs (%d vs %d bytes)", len(atlas2), len(atlas1))
	}

	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		serve.MCacheHits:   1,
		serve.MCacheMisses: 1,
		serve.MCacheStores: 1,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	// Non-cacheable specs execute every time.
	fl := spec
	fl.Atlas, fl.Flightlog = false, true
	for i := 0; i < 2; i++ {
		st, err := c.Submit(ctx, fl)
		if err != nil {
			t.Fatal(err)
		}
		if final, err := c.Wait(ctx, st.ID); err != nil || final.State != serve.StateDone || final.CacheHit {
			t.Fatalf("flightlog run %d = %+v, %v; want executed done", i, final, err)
		}
	}
	if got := stub.count(); got <= callsAfterFirst {
		t.Errorf("non-cacheable resubmissions did not execute (calls %d)", got)
	}
}
