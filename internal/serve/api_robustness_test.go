package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"swarmfuzz/internal/fuzz"
	"swarmfuzz/internal/serve"
	"swarmfuzz/internal/serve/client"
	"swarmfuzz/internal/telemetry"
)

// getJSON decodes the body of a 200 answer to a GET on url into v and
// returns the response.
func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestListPagination(t *testing.T) {
	c, _ := newTestDaemon(t, map[string]fuzz.Fuzzer{"stub": &okFuzzer{}})
	ctx := context.Background()
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := c.Submit(ctx, serve.JobSpec{
			Kind: serve.KindFuzz, Fuzzer: "stub", SwarmSize: 3, SpoofDistance: float64(10 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	var got []string
	after := ""
	for {
		var page []serve.JobStatus
		resp := getJSON(t, c.Base+"/v1/jobs?limit=2&after="+after, &page)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page after %q: HTTP %d", after, resp.StatusCode)
		}
		next := resp.Header.Get("X-Next-After")
		for _, st := range page {
			got = append(got, st.ID)
		}
		if next == "" {
			break
		}
		after = next
	}
	if len(got) != len(ids) {
		t.Fatalf("paged %v, want %v", got, ids)
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("paged %v, want submission order %v", got, ids)
		}
	}

	// A bad limit is a 400, not a silent full listing.
	if resp := getJSON(t, c.Base+"/v1/jobs?limit=-3", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative limit = HTTP %d, want 400", resp.StatusCode)
	}
}

// TestSubmitRetriesThroughGatewayErrors puts a flaky gateway in front
// of the daemon: the first two submit attempts bounce with 502, the
// third lands. The client's idempotency key means the one job that
// finally arrives is the only job the daemon holds.
func TestSubmitRetriesThroughGatewayErrors(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, err := serve.NewEngine(serve.Options{
		Store:     t.TempDir(),
		Workers:   1,
		Fuzzers:   map[string]fuzz.Fuzzer{"stub": &okFuzzer{}},
		Telemetry: telemetry.New(reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	e.Start(context.Background())
	t.Cleanup(func() { e.Drain(5 * time.Second) })
	inner := serve.NewServer(e, reg)
	var submits atomic.Int64
	gateway := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && submits.Add(1) <= 2 {
			http.Error(w, "bad gateway", http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(gateway.Close)

	c := client.New(gateway.URL)
	ctx := context.Background()
	st, err := c.Submit(ctx, serve.JobSpec{
		Kind: serve.KindFuzz, Fuzzer: "stub", SwarmSize: 3, SpoofDistance: 10,
	})
	if err != nil {
		t.Fatalf("submit through flaky gateway: %v", err)
	}
	if got := submits.Load(); got != 3 {
		t.Errorf("submit attempts = %d, want 3", got)
	}
	jobs, err := c.List(ctx)
	if err != nil || len(jobs) != 1 {
		t.Fatalf("jobs after retries = %v, %v; want exactly one", jobs, err)
	}
	if final, err := c.Wait(ctx, st.ID); err != nil || final.State != serve.StateDone {
		t.Fatalf("Wait = %+v, %v", final, err)
	}
}

// TestSubmitDedupesExplicitKey pins the wire-level idempotency
// contract: two submits with the same key return the same job.
func TestSubmitDedupesExplicitKey(t *testing.T) {
	c, _ := newTestDaemon(t, map[string]fuzz.Fuzzer{"stub": &okFuzzer{}})
	ctx := context.Background()
	spec := serve.JobSpec{
		Kind: serve.KindFuzz, Fuzzer: "stub", SwarmSize: 3, SpoofDistance: 10,
		IdempotencyKey: "ik-explicit",
	}
	st1, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if st1.ID != st2.ID {
		t.Errorf("same key produced two jobs: %s, %s", st1.ID, st2.ID)
	}
	if st1.SpecHash == "" || st1.SpecHash != st2.SpecHash {
		t.Errorf("spec hashes %q vs %q, want equal and non-empty", st1.SpecHash, st2.SpecHash)
	}
}
